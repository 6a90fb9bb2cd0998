"""Independent brute-force oracles for every metric, written with explicit loops.

These deliberately avoid the package's vectorized implementations (and numpy
reductions) so that agreement is evidence, not tautology.
"""

import math


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
