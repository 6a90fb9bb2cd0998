"""Independent brute-force oracles for every metric, written with explicit loops.

These deliberately avoid the package's vectorized implementations (and numpy
reductions) so that agreement is evidence, not tautology.
"""

import json
import math
import struct
import warnings

import numpy as np

from fairbench.dataset.schema import cells_match
from fairbench.dataset.tabular import TabularDataset
from fairbench.errors import DataFormatError, FairbenchWarning, SchemaError


def _wsum(values, weights, predicate):
    total = 0.0
    for i, v in enumerate(values):
        if predicate(i, v):
            total += weights[i]
    return total


def oracle_base_rate(labels, protected, weights, group=None):
    num = 0.0
    den = 0.0
    for i in range(len(labels)):
        if group is not None and protected[i] != group:
            continue
        den += weights[i]
        if labels[i] == 1:
            num += weights[i]
    if den == 0:
        raise ZeroDivisionError("empty group")
    return num / den


def oracle_spd(labels, protected, weights):
    return oracle_base_rate(labels, protected, weights, 0) - oracle_base_rate(labels, protected, weights, 1)


def oracle_di(labels, protected, weights):
    r0 = oracle_base_rate(labels, protected, weights, 0)
    r1 = oracle_base_rate(labels, protected, weights, 1)
    if r1 == 0.0:
        return math.nan if r0 == 0.0 else math.inf
    return r0 / r1


def oracle_counts(labels):
    pos = sum(1 for y in labels if y == 1)
    return pos, len(labels) - pos


def oracle_empirical_difference(labels, protected):
    worst = 0.0
    for y in (0, 1):
        rates = []
        for s in (0, 1):
            n_s = sum(1 for g in protected if g == s)
            n_ys = sum(1 for i in range(len(labels)) if protected[i] == s and labels[i] == y)
            rates.append((n_ys + 0.5) / (n_s + 1.0))
        worst = max(worst, abs(math.log(rates[0] / rates[1])))
    return worst


def oracle_zscore(features):
    n = len(features)
    d = len(features[0])
    out = [[0.0] * d for _ in range(n)]
    for j in range(d):
        col = [features[i][j] for i in range(n)]
        mean = sum(col) / n
        var = sum((v - mean) ** 2 for v in col) / n
        sd = math.sqrt(var)
        for i in range(n):
            out[i][j] = (col[i] - mean) / sd if sd > 0 else 0.0
    return out


def oracle_consistency(features, labels, k):
    z = oracle_zscore(features)
    n = len(z)
    total = 0.0
    for i in range(n):
        dists = []
        for j in range(n):
            if j == i:
                continue
            d2 = sum((z[i][c] - z[j][c]) ** 2 for c in range(len(z[i])))
            dists.append((d2, j))
        dists.sort()  # ties break toward the lower index
        neighbor_mean = sum(labels[j] for _, j in dists[:k]) / k
        total += abs(labels[i] - neighbor_mean)
    return 1.0 - total / n


def oracle_soft_assignments(x, prototypes):
    """Row-wise softmax over -||x_i - v_k||^2, each distance summed coordinate by coordinate."""
    out = []
    for row in x:
        logits = [-sum((row[c] - v[c]) ** 2 for c in range(len(row))) for v in prototypes]
        top = max(logits)
        e = [math.exp(a - top) for a in logits]
        total = sum(e)
        out.append([v / total for v in e])
    return out


def oracle_confusion_rates(y_true, y_pred, protected, weights, group):
    tp = fp = tn = fn = 0.0
    for i in range(len(y_true)):
        if group != "all" and protected[i] != group:
            continue
        w = weights[i]
        if y_true[i] == 1 and y_pred[i] == 1:
            tp += w
        elif y_true[i] == 0 and y_pred[i] == 1:
            fp += w
        elif y_true[i] == 0 and y_pred[i] == 0:
            tn += w
        else:
            fn += w
    rates = {}
    rates["tpr"] = tp / (tp + fn) if tp + fn > 0 else None
    rates["fnr"] = fn / (tp + fn) if tp + fn > 0 else None
    rates["fpr"] = fp / (fp + tn) if fp + tn > 0 else None
    rates["tnr"] = tn / (fp + tn) if fp + tn > 0 else None
    return rates


def oracle_prediction_rate(y_pred, protected, weights, group):
    num = 0.0
    den = 0.0
    for i in range(len(y_pred)):
        if protected[i] != group:
            continue
        den += weights[i]
        if y_pred[i] == 1:
            num += weights[i]
    return num / den


def oracle_theil(y_true, y_pred):
    n = len(y_true)
    benefits = [y_pred[i] - y_true[i] + 1.0 for i in range(n)]
    mu = sum(benefits) / n
    if mu == 0.0:
        return 0.0
    total = 0.0
    for b in benefits:
        ratio = b / mu
        if ratio > 0:
            total += ratio * math.log(ratio)
    return total / n


def oracle_classification(y_true, scores, threshold, protected, weights):
    """Full stage-2 bundle via loops; None where a denominator is empty."""
    y_pred = [1 if scores[i] >= threshold else 0 for i in range(len(scores))]
    pooled = oracle_confusion_rates(y_true, y_pred, protected, weights, "all")
    g0 = oracle_confusion_rates(y_true, y_pred, protected, weights, 0)
    g1 = oracle_confusion_rates(y_true, y_pred, protected, weights, 1)

    bal = None
    if pooled["tpr"] is not None and pooled["tnr"] is not None:
        bal = 0.5 * (pooled["tpr"] + pooled["tnr"])
    eod = None
    if g0["tpr"] is not None and g1["tpr"] is not None:
        eod = g0["tpr"] - g1["tpr"]
    aod = None
    if None not in (g0["tpr"], g1["tpr"], g0["fpr"], g1["fpr"]):
        aod = 0.5 * ((g0["fpr"] - g1["fpr"]) + (g0["tpr"] - g1["tpr"]))
    r0 = oracle_prediction_rate(y_pred, protected, weights, 0)
    r1 = oracle_prediction_rate(y_pred, protected, weights, 1)
    spd = r0 - r1
    if r1 == 0.0:
        di = math.nan if r0 == 0.0 else math.inf
    else:
        di = r0 / r1
    return {
        "balanced_accuracy": bal,
        "statistical_parity_difference": spd,
        "disparate_impact": di,
        "equal_opportunity_difference": eod,
        "average_odds_difference": aod,
        "theil_index": oracle_theil(y_true, y_pred),
        "rates": {0: g0, 1: g1, "all": pooled},
    }


def oracle_opp_transform(mapping, ds, seed):
    """OPP's sampler one record at a time: dict lookups, then one
    `rng.choice(len(targets), p=table[row])` per record, in record order.
    numpy is used only for that generator.

    Returns (features, labels, paths), where paths counts each fallback taken:
    values clamped to the nearest level, cells snapped to the nearest
    observed cell, and (cell, label, group) keys unseen in training.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    cell_index = {c: i for i, c in enumerate(mapping.cells)}
    row_index = {k: r for r, k in enumerate(mapping.row_keys)}
    col_pos = [ds.feature_names.index(name) for name in mapping.column_names]
    features = ds.features.copy()
    labels = ds.labels.copy()
    paths = {"clamped": 0, "snapped": 0, "unseen_key": 0}
    for i in range(ds.n):
        record = []
        for j, pos in enumerate(col_pos):
            v, edges = float(ds.features[i, pos]), mapping.bin_edges[j]
            if mapping.column_kinds[j] == "binned":
                record.append(sum(1 for e in edges if e <= v))
            elif v in edges:
                record.append(edges.index(v))
            else:
                record.append(min(range(len(edges)), key=lambda k: abs(edges[k] - v)))
                paths["clamped"] += 1
        record = tuple(record)
        cell = cell_index.get(record)
        if cell is None:
            cell = min(range(len(mapping.cells)),
                       key=lambda c: sum(a != b for a, b in zip(mapping.cells[c], record)))
            paths["snapped"] += 1
        key = (cell, int(ds.labels[i]), int(ds.protected[i]))
        row = row_index.get(key)
        if row is None:
            for match in (lambda k: k[1:] == key[1:], lambda k: k[2] == key[2], lambda k: True):
                candidates = [r for r, k in enumerate(mapping.row_keys) if match(k)]
                if candidates:
                    break
            row = min(candidates, key=lambda r: abs(mapping.row_keys[r][0] - cell))
            paths["unseen_key"] += 1
        t = rng.choice(len(mapping.target_keys), p=mapping.table[row])
        target_cell, labels[i] = mapping.target_keys[t]
        for j, pos in enumerate(col_pos):
            features[i, pos] = mapping.bin_values[j][mapping.cells[target_cell][j]]
    return features, labels, paths


def oracle_gd_logreg(train, cfg):
    """`train_logreg` by full-batch gradient descent, the solver Newton replaced.

    Same standardization, zero start and stop rule (gradient max-norm <= tol);
    each step backtracks from twice the last accepted length until the loss
    falls by 1e-4 * length * |g|^2. Returns a TrainedModel.
    """
    import numpy as np

    from fairbench.model.logreg import TrainedModel, loss_and_gradient

    y = train.labels.astype(np.float64)
    w = train.weights / train.weights.sum()
    means = w @ train.features
    variances = w @ (train.features - means) ** 2
    scales = np.where(variances > 0, np.sqrt(variances), 1.0)
    if not cfg.standardize:
        means, scales = np.zeros(train.dim), np.ones(train.dim)
    x = (train.features - means) / scales

    coef = np.zeros(train.dim)
    intercept = 0.0
    loss, grad_coef, grad_b = loss_and_gradient(x, y, w, coef, intercept, cfg.l2)
    step = 1.0
    iterations = 0
    while max(float(np.abs(grad_coef).max()), abs(grad_b)) > cfg.tol and iterations < cfg.max_iter:
        gsq = float(grad_coef @ grad_coef) + grad_b * grad_b
        trial = step
        for _ in range(60):
            cand_coef = coef - trial * grad_coef
            cand_b = intercept - trial * grad_b
            cand_loss, cand_gc, cand_gb = loss_and_gradient(x, y, w, cand_coef, cand_b, cfg.l2)
            if cand_loss <= loss - 1e-4 * trial * gsq:
                break
            trial *= 0.5
        else:
            break
        coef, intercept = cand_coef, cand_b
        loss, grad_coef, grad_b = cand_loss, cand_gc, cand_gb
        step = trial * 2.0
        iterations += 1
    return TrainedModel(coefficients=coef, intercept=float(intercept), feature_means=means,
                        feature_scales=scales, final_loss=loss,
                        final_gradient_norm=max(float(np.abs(grad_coef).max()), abs(grad_b)),
                        iterations=iterations)


def oracle_opp_fit(ds, cfg):
    """`opp_fit` with the mirror-descent state held as the (rows, targets) table,
    the form the four-parameter loop replaced.

    Each step multiplies every table row by exp(-step * gradient) in place and
    renormalizes it, so an entry that underflows to 0 stays 0. Same objective,
    line search, step doubling and stop rule; `row_sum_drift` is the max
    |row sum - 1| seen over all iterations. Returns an OppMap.
    """
    import math

    import numpy as np

    from fairbench.errors import FitError
    from fairbench.preproc.opp import OppMap, _cell_codes, _discretize_columns, _unique_rows

    names, kinds, edges, values = _discretize_columns(ds, cfg)
    cells, cell_of = _unique_rows(_cell_codes(ds, names, kinds, edges))
    row_keys, row_of = _unique_rows(np.column_stack([cell_of, ds.labels, ds.protected]))
    target_keys, target_of = _unique_rows(np.column_stack([cell_of, ds.labels]))
    w = ds.weights / ds.weights.sum()
    p_row = np.bincount(row_of, weights=w)
    p_target = np.bincount(target_of, weights=w)

    # Hamming distance between cells plus the label-flip cost, per (row, target)
    diff = cells[row_keys[:, 0]][:, None, :] != cells[target_keys[:, 0]][None, :, :]
    hamming = diff.sum(axis=2) / max(cells.shape[1], 1)
    flips = (row_keys[:, 1][:, None] != target_keys[:, 1][None, :]).astype(float)
    dist = hamming + cfg.label_flip_cost * flips

    y1 = (target_keys[:, 1] == 1).astype(float)
    group_rows = [np.flatnonzero(row_keys[:, 2] == s) for s in (0, 1)]
    p_row_group = [p_row[rows] for rows in group_rows]
    p_group = np.array([p.sum() for p in p_row_group])
    target_rate = float((ds.weights * (ds.labels == 1)).sum() / ds.weights.sum())

    table = np.exp(-4.0 * dist)
    table /= table.sum(axis=1, keepdims=True)

    def evaluate(tab):
        p_hat = p_row @ tab
        with np.errstate(divide="ignore"):
            logs = np.where(p_hat > 0, np.log(np.where(p_hat > 0, p_hat, 1.0) / p_target), 0.0)
        kl = float((p_hat * logs).sum())
        rates = np.array([
            float((p_row_group[s] @ tab[group_rows[s]]) @ y1) / p_group[s] for s in (0, 1)
        ])
        ratios = rates / target_rate
        hinges = np.maximum(0.0, np.abs(ratios - 1.0) - cfg.epsilon)
        expected = float((p_row[:, None] * tab * dist).sum())
        dist_hinge = max(0.0, expected - cfg.distortion_budget)
        j = kl + cfg.rho_fair * float(hinges.sum()) + cfg.rho_dist * dist_hinge
        return j, logs, ratios, hinges, expected, dist_hinge

    obj, logs, ratios, hinges, expected, dist_hinge = evaluate(table)
    if not math.isfinite(obj):
        raise FitError(f"non-finite objective at initialization: {obj}")
    trace = [float(obj)]
    drift = float(np.abs(table.sum(axis=1) - 1.0).max())
    eta = 1.0
    for _ in range(cfg.max_iter):
        grad = (logs + 1.0)[None, :].repeat(len(row_keys), axis=0)
        active = hinges > 0
        for s in (0, 1):
            if active[s]:
                sign = math.copysign(1.0, ratios[s] - 1.0)
                grad[group_rows[s]] += cfg.rho_fair * sign * y1[None, :] / (p_group[s] * target_rate)
        if dist_hinge > 0:
            grad += cfg.rho_dist * dist

        accepted = False
        trial = eta
        for _ in range(60):
            exponent = -trial * grad
            exponent -= exponent.max(axis=1, keepdims=True)
            cand = table * np.exp(exponent)
            row_mass = cand.sum(axis=1, keepdims=True)
            if (row_mass <= 0).any():
                trial *= 0.5
                continue
            cand /= row_mass
            cand_obj, c_logs, c_ratios, c_hinges, c_expected, c_dist_hinge = evaluate(cand)
            if math.isfinite(cand_obj) and cand_obj < obj:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            break
        table = cand
        drift = max(drift, float(np.abs(table.sum(axis=1) - 1.0).max()))
        obj, logs, ratios, hinges, expected, dist_hinge = cand_obj, c_logs, c_ratios, c_hinges, c_expected, c_dist_hinge
        trace.append(float(obj))
        eta = min(trial * 2.0, 1000.0)
        if len(trace) >= 2 and (trace[-2] - trace[-1]) < 1e-12 * max(abs(trace[-2]), 1.0):
            break

    return OppMap(
        column_names=tuple(names),
        column_kinds=kinds,
        bin_edges=edges,
        bin_values=values,
        cells=tuple(map(tuple, cells.tolist())),
        row_keys=tuple(map(tuple, row_keys.tolist())),
        target_keys=tuple(map(tuple, target_keys.tolist())),
        table=table,
        epsilon=cfg.epsilon,
        distortion_budget=cfg.distortion_budget,
        penalty_trace=tuple(trace),
        fairness_residual=float(np.maximum(0.0, np.abs(ratios - 1.0) - cfg.epsilon).max()),
        distortion_residual=float(max(0.0, expected - cfg.distortion_budget)),
        row_sum_drift=drift,
    )


def _lfr_groups(s):
    """The parity term's per-fit constants: the group-1 column mask and each group's rows."""
    import numpy as np

    return (s == 1)[:, None], np.flatnonzero(s == 1), np.flatnonzero(s == 0)


def _lfr_forward(x, y, groups, prototypes, label_weights, a_z, a_x, a_y):
    """Objective, its three components, and the intermediates its gradient needs.

    The intermediates are the soft assignments m, the group-mean gap of m, the
    residual m v - x, and the raw and clipped label predictions.
    """
    import numpy as np

    from fairbench.preproc.lfr import _PROB_CLIP, _soft_assignments

    _, rows1, rows0 = groups
    n = x.shape[0]
    m = _soft_assignments(x, prototypes)
    gap = m[rows1].mean(axis=0) - m[rows0].mean(axis=0)
    resid = m @ prototypes
    resid -= x
    yhat_raw = m @ label_weights
    yhat = np.clip(yhat_raw, _PROB_CLIP, 1.0 - _PROB_CLIP)
    l_parity = np.abs(gap).sum()
    l_recon = (resid ** 2).sum() / n
    l_label = -(y * np.log(yhat) + (1.0 - y) * np.log(1.0 - yhat)).mean()
    objective = a_z * l_parity + a_x * l_recon + a_y * l_label
    return objective, (l_parity, l_recon, l_label), (m, gap, resid, yhat_raw, yhat)


def _lfr_gradients(x, y, groups, prototypes, label_weights, a_z, a_x, a_y, intermediates):
    """Analytic gradients at the point whose `_lfr_forward` gave `intermediates`."""
    import numpy as np

    from fairbench.preproc.lfr import _PROB_CLIP

    in1, rows1, rows0 = groups
    m, gap, resid, yhat_raw, yhat = intermediates
    n = x.shape[0]

    # dL/dM for each component
    sign_parity = np.sign(gap)
    g_parity = np.where(in1, sign_parity / len(rows1), -sign_parity / len(rows0))

    g_recon = (2.0 / n) * (resid @ prototypes.T)

    clipped = (yhat_raw < _PROB_CLIP) | (yhat_raw > 1.0 - _PROB_CLIP)
    dldy = (yhat - y) / (yhat * (1.0 - yhat)) / n
    dldy[clipped] = 0.0
    g_label = dldy[:, None] * label_weights[None, :]

    g_total = a_z * g_parity + a_x * g_recon + a_y * g_label

    # back through the softmax: H = M * (G - sum_k G M), then through -||x-v||^2
    row_dot = (g_total * m).sum(axis=1, keepdims=True)
    h = m * (g_total - row_dot)
    grad_v = 2.0 * (h.T @ x - h.sum(axis=0)[:, None] * prototypes)
    # direct dependence of the reconstruction term on the prototypes
    grad_v += a_x * (2.0 / n) * (m.T @ resid)

    grad_w = a_y * (m.T @ dldy)
    return grad_v, grad_w


def oracle_lfr_point(x, y, s, prototypes, label_weights, a_z, a_x, a_y):
    """LFR's objective, its three components and both gradients, from the (n, d) residual m v - x."""
    groups = _lfr_groups(s)
    objective, parts, state = _lfr_forward(x, y, groups, prototypes, label_weights, a_z, a_x, a_y)
    grad_v, grad_w = _lfr_gradients(x, y, groups, prototypes, label_weights, a_z, a_x, a_y, state)
    return objective, parts, grad_v, grad_w


def oracle_lfr_fit(ds, n_prototypes=10, a_z=50.0, a_x=0.01, a_y=1.0, seed=0, max_iter=5000, tol=1e-6):
    """`lfr_fit` in record space, the form the prototype-space loop replaced.

    Every line-search candidate takes a forward pass over the (n, d) residual;
    same initialization, line search, step doubling and stop rule. It does not
    warn at `max_iter`. Returns an LfrModel.
    """
    import math

    import numpy as np

    from fairbench.preproc.lfr import LfrModel

    x = ds.features
    y = ds.labels.astype(np.float64)
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    prototypes = x[rng.choice(n, size=n_prototypes, replace=False)].copy()
    label_weights = rng.random(n_prototypes)
    groups = _lfr_groups(ds.protected)

    obj, _, state = _lfr_forward(x, y, groups, prototypes, label_weights, a_z, a_x, a_y)
    trace = [float(obj)]
    step = 1.0
    for _ in range(max_iter):
        grad_v, grad_w = _lfr_gradients(x, y, groups, prototypes, label_weights, a_z, a_x, a_y, state)
        accepted = False
        trial = step
        for _ in range(60):
            cand_v = prototypes - trial * grad_v
            cand_w = np.clip(label_weights - trial * grad_w, 0.0, 1.0)
            cand_obj, _, cand_state = _lfr_forward(x, y, groups, cand_v, cand_w, a_z, a_x, a_y)
            if not math.isfinite(cand_obj):
                raise ValueError(f"non-finite objective during fit: {cand_obj}")
            if cand_obj < obj:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            break
        prototypes, label_weights, state = cand_v, cand_w, cand_state
        rel_drop = (obj - cand_obj) / max(abs(obj), 1e-30)
        obj = cand_obj
        trace.append(float(obj))
        step = trial * 2.0
        if rel_drop < tol:
            break

    return LfrModel(
        prototypes=prototypes,
        label_weights=label_weights,
        weight_parity=a_z,
        weight_reconstruction=a_x,
        weight_label=a_y,
        objective_trace=tuple(trace),
    )


def _apply_binarization(columns, rows, schema):
    """Apply first-match rewrite rules; derived columns are appended."""
    by_target = {}
    for rule in schema.binarize:
        by_target.setdefault((rule.column, rule.source), []).append(rule)
    if not by_target:
        return columns, rows

    columns = list(columns)
    rows = [list(r) for r in rows]
    for (target, source), rules in by_target.items():
        if source not in columns:
            raise DataFormatError(f"binarization source column {source!r} not in table")
        src_idx = columns.index(source)
        if target in columns:
            dst_idx = columns.index(target)
        else:
            dst_idx = len(columns)
            columns.append(target)
            for row in rows:
                row.append("")
        for i, row in enumerate(rows):
            cell = row[src_idx]
            for rule in rules:
                if rule.matches(cell):
                    row[dst_idx] = rule.output
                    break
            else:
                raise DataFormatError(
                    f"row {i + 2}, column {source!r}: value {cell!r} matches no binarization rule"
                )
    return tuple(columns), [tuple(r) for r in rows]


def _drop_missing(columns, rows, schema):
    """(kept rows, the file row number of each: the header is row 1)."""
    file_rows = [i + 2 for i in range(len(rows))]
    if not schema.drop_missing_rows or not schema.missing_tokens:
        return rows, file_rows
    tokens = schema.missing_tokens
    watched = [j for j, c in enumerate(columns) if c in schema.referenced_columns() | schema.derived_columns()]
    keep = [not any(str(r[j]).strip() in tokens for j in watched) for r in rows]
    kept = [r for r, k in zip(rows, keep) if k]
    dropped = len(rows) - len(kept)
    if dropped:
        warnings.warn(
            f"{schema.name}: dropped {dropped} row(s) with missing values", FairbenchWarning
        )
    if not kept:
        raise DataFormatError(f"{schema.name}: all rows dropped as missing")
    return kept, [i for i, k in zip(file_rows, keep) if k]


def oracle_encode(table, schema):
    """`encode` row by row, as it was before it read the table column by column.

    Encode labels/protected to {0,1}, one-hot categoricals, pass numerics through.

    Label is 1 iff the raw label equals the schema's favorable value; protected is
    1 iff the raw value is in the privileged set. Categorical levels are taken in
    first-seen order unless the schema pins them (then unseen values get an
    all-zero row plus a warning). The protected column is excluded from the
    feature matrix unless the schema overrides that. Weights start at 1.
    """
    columns, rows = _apply_binarization(table.columns, table.rows, schema)
    rows, file_rows = _drop_missing(columns, rows, schema)
    col_index = {c: j for j, c in enumerate(columns)}
    n = len(rows)

    labels = np.fromiter(
        (1 if cells_match(r[col_index[schema.label_column]], schema.favorable_value) else 0 for r in rows),
        dtype=np.int64,
        count=n,
    )
    protected = np.fromiter(
        (
            1 if any(cells_match(r[col_index[schema.protected_column]], v) for v in schema.privileged_values) else 0
            for r in rows
        ),
        dtype=np.int64,
        count=n,
    )

    feature_order = [
        c
        for c in columns
        if (c in schema.numeric_columns or c in schema.categorical_columns)
        and c not in schema.drop_columns
        and c != schema.label_column
        and (c != schema.protected_column or schema.keep_protected_in_features)
    ]
    if not feature_order:
        raise SchemaError(f"{schema.name}: no feature columns present")

    blocks, names = [], []
    for col in feature_order:
        j = col_index[col]
        cells = [r[j] for r in rows]
        if col in schema.numeric_columns:
            values = np.empty(n, dtype=np.float64)
            for i, cell in enumerate(cells):
                try:
                    values[i] = float(str(cell).strip())
                except ValueError:
                    raise DataFormatError(
                        f"row {file_rows[i]}, column {col!r}: non-numeric cell {cell!r} in a numeric column"
                    ) from None
            blocks.append(values[:, None])
            names.append(col)
        else:
            pinned = schema.categories.get(col)
            if pinned is not None:
                levels = list(pinned)
            else:
                levels, seen = [], set()
                for cell in cells:
                    key = str(cell).strip()
                    if key not in seen:
                        seen.add(key)
                        levels.append(key)
            level_pos = {lv: k for k, lv in enumerate(levels)}
            onehot = np.zeros((n, len(levels)), dtype=np.float64)
            unseen = 0
            for i, cell in enumerate(cells):
                k = level_pos.get(str(cell).strip())
                if k is None:
                    unseen += 1
                else:
                    onehot[i, k] = 1.0
            if unseen:
                warnings.warn(
                    f"{schema.name}: column {col!r}: {unseen} value(s) outside the pinned "
                    "levels encoded as all-zero",
                    FairbenchWarning,
                )
            blocks.append(onehot)
            names.extend(f"{col}={lv}" for lv in levels)

    features = np.hstack(blocks)
    return TabularDataset(
        features=features,
        labels=labels,
        protected=protected,
        weights=np.ones(n),
        feature_names=tuple(names),
        provenance=f"{schema.name}[{schema.sensitive_attribute}]",
    )


def _oracle_entry(header, body):
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"FPDSBIN\n" + struct.pack("<Q", len(head)) + head + b"".join(body)


def _raw_vectors(ds):
    return [ds.labels.astype("<i8").tobytes(), ds.protected.astype("<i8").tobytes(), ds.weights.astype("<f8").tobytes()]


def oracle_dense_entry(ds, version=2):
    """The canonical dense form of `ds` under format `version`.

    Magic, header length, sorted-key JSON header (version, n, d, feature
    names, provenance), then features (row-major float64), labels and
    protected (int64) and weights (float64), little-endian. At version 2 these
    were a cache entry's bytes and their sha256 its key. At version 4 their
    sha256 is the key, and the entry holds the same arrays as one zlib stream.
    """
    header = {"version": version, "n": ds.n, "provenance": ds.provenance, "d": ds.dim,
              "feature_names": list(ds.feature_names)}
    return _oracle_entry(header, [ds.features.astype("<f8").tobytes(order="C"), *_raw_vectors(ds)])


def oracle_v3_entry(ds):
    """The bytes of a format-3 cache entry with every array stored raw, keyed on their sha256.

    Version 3 stored each feature column, then labels, protected and weights,
    raw or as a table of distinct values plus codes; `tables` gave each
    array's table size, 0 for raw, and its reader took an all-raw entry.
    """
    header = {"version": 3, "n": ds.n, "provenance": ds.provenance, "d": ds.dim,
              "feature_names": list(ds.feature_names), "tables": [0] * (ds.dim + 3)}
    return _oracle_entry(header, [ds.features.astype("<f8").tobytes(order="F"), *_raw_vectors(ds)])
