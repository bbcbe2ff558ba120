"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written with plain Python loops and
sorting, not by calling back into the library code paths it verifies.
reference_train reuses only the model, mask and target builders, backward
and substream; the loop, prune/regrow, SGD, averaging and
scoring are its own.
"""

import math

import numpy as np


def finite_difference_grads(model, x, targets, loss_fn, h=1e-3):
    """Central-difference gradients of loss_fn(model, x, targets) for every
    weight and bias, evaluated in the model's own dtype (use float64
    models for tight comparisons)."""
    grads_w = [np.zeros_like(w) for w in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]
    for param, grad in list(zip(model.weights, grads_w)) + list(zip(model.biases, grads_b)):
        flat_p = param.reshape(-1)
        flat_g = grad.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            up = loss_fn(model, x, targets)
            flat_p[i] = orig - h
            down = loss_fn(model, x, targets)
            flat_p[i] = orig
            flat_g[i] = (up - down) / (2.0 * h)
    return grads_w, grads_b


def max_relative_error(analytic, numeric):
    """Gradcheck-style relative error: |a - b| / max(1, |a|, |b|)."""
    worst = 0.0
    for a, b in zip(analytic, numeric):
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


def ece_bruteforce(probs, labels, n_bins):
    """Top-label ECE by explicit per-sample bin scan.

    Same conventions as the library: (lower, upper] bins over (0, 1],
    confidence 0 in bin 1, argmax ties to the lowest index, float64 sums
    in sample order, bins accumulated in ascending order.
    """
    n = len(labels)
    uppers = [(m + 1) / n_bins for m in range(n_bins)]
    bins = [[] for _ in range(n_bins)]
    for i in range(n):
        row = [float(v) for v in probs[i]]
        conf = max(row)
        pred = row.index(conf)
        slot = n_bins - 1
        for m in range(n_bins):
            if conf <= uppers[m]:
                slot = m
                break
        bins[slot].append((conf, 1.0 if pred == int(labels[i]) else 0.0))
    total = 0.0
    for m in range(n_bins):
        if not bins[m]:
            continue
        conf_sum = 0.0
        acc_sum = 0.0
        for conf, hit in bins[m]:
            conf_sum += conf
            acc_sum += hit
        count = len(bins[m])
        total += (count / n) * abs(acc_sum / count - conf_sum / count)
    return total


def prune_regrow_bruteforce(weights, grads, mask, fraction):
    """Full-sort prune/regrow oracle on one layer; ties to lowest flat index."""
    w = [float(v) for v in np.asarray(weights).ravel()]
    g = [float(v) for v in np.asarray(grads).ravel()]
    m = [bool(v) for v in np.asarray(mask).ravel()]
    active = [i for i in range(len(m)) if m[i]]
    inactive = [i for i in range(len(m)) if not m[i]]
    k = int(fraction * len(active))
    k = min(k, len(inactive))
    prune = sorted(active, key=lambda i: (abs(w[i]), i))[:k]
    grow = sorted(inactive, key=lambda i: (-abs(g[i]), i))[:k]
    keep = (set(active) - set(prune)) | set(grow)
    out = np.zeros(len(m), dtype=bool)
    out[sorted(keep)] = True
    return out.reshape(np.asarray(mask).shape)


def draw_layers(mask, z):
    """A compact random-mask draw z (one bool per active weight, in
    mask.flat_active order) laid out as mask's layers, false off the topology."""
    flat = np.zeros_like(mask.flat)
    flat[mask.flat_active] = z
    ends = np.cumsum([m.size for m in mask.layers])
    return [flat[end - m.size : end].reshape(m.shape) for m, end in zip(mask.layers, ends)]


def mc_dropout_enumeration(model_weights, biases, mask_layers, keep_prob, x, forward_fn):
    """Exact MC-dropout expectation by enumerating every random-mask support
    over the active positions (feasible for <= ~16 active weights)."""
    active_coords = []
    for li, m in enumerate(mask_layers):
        for idx in np.argwhere(m):
            active_coords.append((li, tuple(idx)))
    n_active = len(active_coords)
    expected = None
    for pattern in range(2**n_active):
        masked = [w * m for w, m in zip(model_weights, mask_layers)]
        prob = 1.0
        for bit, (li, idx) in enumerate(active_coords):
            if pattern >> bit & 1:
                prob *= keep_prob
            else:
                prob *= 1.0 - keep_prob
                masked[li][idx] = 0.0
        probs = forward_fn(masked, biases, x)
        expected = prob * probs if expected is None else expected + prob * probs
    return expected


def live_units_by_loops(model):
    """model through only the hidden units that depend on the input and reach a
    logit, by scans over every weight. Backwards, a hidden unit reaches a logit
    if some nonzero weight leads from it to a unit that does; forwards, it
    depends on the input if some nonzero weight leads to it from an input or
    from a unit that does. Every input and output unit stays. A unit that
    reaches a logit but not the input outputs max(b', 0), b' its folded bias:
    its bias, then plus w[r, j] * c_j for each such unit j of the layer before
    in ascending order, one rounding in the model's dtype per operation. The
    kept weights and biases are fresh C-contiguous arrays."""
    from cigl.tensor import MlpModel

    weights, biases = model.weights, model.biases
    reach = [list(range(weights[-1].shape[0]))]  # the output units
    for w in reversed(weights[1:]):
        reach.insert(0, [j for j in range(w.shape[1]) if any(w[r, j] != 0 for r in reach[0])])
    depend = [list(range(weights[0].shape[1]))]  # the inputs
    for w in weights[:-1]:
        depend.append([r for r in range(w.shape[0]) if any(w[r, j] != 0 for j in depend[-1])])
    kept, const = [depend[0]], [[]]
    for r_units, d_units in zip(reach[:-1], depend[1:]):
        kept.append([u for u in r_units if u in d_units])
        const.append([u for u in r_units if u not in d_units])
    kept.append(reach[-1])
    const.append([])
    out_w, out_b, c = [], [], {}  # c: each constant unit's output, of the layer before
    for w, b, inp, out, const_in, const_out in zip(weights, biases, kept, kept[1:], const,
                                                   const[1:]):
        folded = []
        for r in range(w.shape[0]):
            acc = b[r]
            for j in const_in:
                acc = acc + w[r, j] * c[j]
            folded.append(acc)
        c = {r: max(folded[r], np.zeros((), b.dtype)) for r in const_out}
        out_w.append(w[np.ix_(out, inp)])
        out_b.append(np.array([folded[r] for r in out], dtype=b.dtype))
    return MlpModel(out_w, out_b)


# Each method's parts, spelled out from the paper rather than read from
# cigl.config.METHODS: (sparse topology, random mask, weight & mask
# averaging, MC-dropout prediction).
REFERENCE_METHODS = {
    "cigl": (True, True, True, False),
    "rigl": (True, False, False, False),
    "rigl_wdp": (True, True, False, False),
    "rigl_mcdp": (True, True, False, True),
    "dense": (False, False, False, False),
    "cigl_no_rm": (True, False, True, False),
    "cigl_no_wma": (True, True, False, False),
}


def reference_train(config, train, test):
    """The whole training loop, written out of place from the algorithm.

    Weights and velocities off m are +0: they start so, and every
    update_interval iterations before the freeze, after pruning the smallest
    |w| and regrowing the largest dense |g| by stable argsort, w and v are
    set to +0 off the new m, so a regrown weight starts from +0 weight and
    velocity. Per iteration: smoothed (and mixed) targets, the topology
    update when due, the random mask z (a boolean scatter over the active
    positions), the gradient at w * m * z masked by m * z, and SGD
    v = mu v + g + lambda w, w = w - eta v, which keeps +0 off m because v
    and w are +0 there (+0 + -0 is +0).
    At each epoch end: fold the snapshot w * m * z into the running mean,
    output the mean on m_final and +0 off it (or w * m before any
    snapshot), and score it by plain softmax of one feature-major forward,
    h = w @ h + b[:, None] from h = x.T, through its live units (MC over
    mc.eval.<epoch> draws, each w * z on m and +0 off it, for MC prediction)
    with ece_bruteforce.

    Returns a dict: final weights, biases and mask layers, the unmasked
    snapshot mean (weights then biases; None without snapshots), and per
    epoch (train_loss, test_accuracy, test_ece). Raises NonFiniteError as
    backward does when training diverges.
    """
    from cigl.calibration import label_smoothing_targets, mixup_batch
    from cigl.masks import build_sparsity_plan, init_mask
    from cigl.rng import substream
    from cigl.tensor import MlpModel, backward, init_mlp

    sparse, random_mask, wma, mc_predict = REFERENCE_METHODS[config.method]
    seed, n_classes = config.seed, train.n_classes

    def scatter(m, rng, keep_prob):
        z = np.zeros(m.size, dtype=bool)
        active = np.flatnonzero(m)
        z[active] = rng.random(active.size) < keep_prob
        return z.reshape(m.shape)

    def on(m, a):  # a on m, +0 off it
        return np.where(m, a, np.zeros((), a.dtype))

    def test_probs(w, b):  # feature-major, one column block: the test split is that small
        h, live = test.features.T, live_units_by_loops(MlpModel(w, b))
        for i, (wl, bl) in enumerate(zip(live.weights, live.biases)):
            h = wl @ h + bl[:, None]
            if i < len(w) - 1:
                h = np.maximum(h, np.zeros_like(h))
        logits = h.T.astype(np.float64)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    dims = [train.n_features, *config.hidden, n_classes]
    init = init_mlp(dims, substream(seed, "init.weights"))
    shapes = [w.shape for w in init.weights]
    plan = build_sparsity_plan(shapes, config.sparsity if sparse else 0.0,
                               config.sparsity_mode, config.mask_exclude)
    m = init_mask(shapes, plan, substream(seed, "mask.init")).layers
    w = [on(ml, wl) for wl, ml in zip(init.weights, m)]
    b = list(init.biases)
    vw = [np.zeros_like(x) for x in w]
    vb = [np.zeros_like(x) for x in b]

    n, bs = len(train), config.batch_size
    n_batches = -(-n // bs)
    update_end = int(config.update_end_fraction * (config.epochs * n_batches))  # of all iterations
    wma_start = (config.wma_start_epoch if config.wma_start_epoch is not None
                 else int(0.8 * config.epochs))
    z_rng = substream(seed, "mask.random")
    mix_rng = substream(seed, "train.mixup")
    mean, n_snapshots = None, 0
    history = []
    t = 0
    for epoch in range(1, config.epochs + 1):
        lr = config.base_lr * config.lr_decay ** sum(ms <= epoch - 1 for ms in config.lr_milestones)
        order = substream(seed, f"data.shuffle.{epoch - 1}").permutation(n)
        loss_sum = 0.0
        for start in range(0, n, bs):
            t += 1
            sel = order[start:start + bs]
            x = train.features[sel]
            targets = label_smoothing_targets(train.labels[sel], config.label_smoothing, n_classes)
            if config.mixup_alpha > 0:
                perm = mix_rng.permutation(len(x))
                x, targets, _ = mixup_batch(x, targets, x[perm], targets[perm],
                                            config.mixup_alpha, mix_rng)

            if sparse and t % config.update_interval == 0 and t < update_end:
                _, dense_g, _ = backward(MlpModel(w, b), x, targets)
                frac = config.update_fraction / 2 * (1 + math.cos(math.pi * t / update_end))
                new_m = []
                for wl, gl, ml in zip(w, dense_g, m):
                    flat = ml.ravel()
                    active, inactive = np.flatnonzero(flat), np.flatnonzero(~flat)
                    k = min(int(frac * active.size), inactive.size)
                    prune = active[np.argsort(np.abs(wl.ravel()[active]), kind="stable")[:k]]
                    grow = inactive[np.argsort(-np.abs(gl.ravel()[inactive]), kind="stable")[:k]]
                    out = flat.copy()
                    out[prune] = False
                    out[grow] = True
                    new_m.append(out.reshape(ml.shape))
                m = new_m
                w = [on(ml, wl) for wl, ml in zip(w, m)]
                vw = [on(ml, v) for v, ml in zip(vw, m)]

            z = [scatter(ml, z_rng, config.keep_prob) for ml in m] if random_mask else m
            seen = MlpModel([wl * ml * zl for wl, ml, zl in zip(w, m, z)], b)
            loss, gw, gb = backward(seen, x, targets)
            gw = [g * ml * zl for g, ml, zl in zip(gw, m, z)]
            vw = [config.momentum * v + g + config.weight_decay * wl for v, g, wl in zip(vw, gw, w)]
            vb = [config.momentum * v + g for v, g in zip(vb, gb)]
            w = [wl - lr * v for wl, v in zip(w, vw)]
            b = [bl - lr * v for bl, v in zip(b, vb)]
            loss_sum += loss

        if wma and epoch > wma_start and (epoch - wma_start) % config.wma_every == 0:
            snap = [(wl * ml * zl).astype(np.float64) for wl, ml, zl in zip(w, m, z)]
            snap += [bl.astype(np.float64) for bl in b]
            mean = snap if mean is None else [(a * n_snapshots + s) / (n_snapshots + 1)
                                              for a, s in zip(mean, snap)]
            n_snapshots += 1
        if n_snapshots:
            out_w = [on(ml, a.astype(np.float32)) for a, ml in zip(mean, m)]
            out_b = [a.astype(np.float32) for a in mean[len(w):]]
        else:
            out_w, out_b = [wl * ml for wl, ml in zip(w, m)], list(b)

        if mc_predict:
            rng = substream(seed, f"mc.eval.{epoch}")
            draws = [test_probs([on(ml, wl * scatter(ml, rng, config.keep_prob))
                                 for wl, ml in zip(out_w, m)], out_b)
                     for _ in range(config.mc_samples)]
            probs = draws[0]
            for p in draws[1:]:
                probs = probs + p
            probs = probs / config.mc_samples
        else:
            probs = test_probs(out_w, out_b)
        hits = sum(int(np.argmax(row)) == int(y) for row, y in zip(probs, test.labels))
        history.append((loss_sum / n_batches, hits / len(test),
                        ece_bruteforce(probs, test.labels, config.n_bins)))
    return {"weights": out_w, "biases": out_b, "mask": m, "mean": mean, "history": history}
