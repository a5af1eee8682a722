"""Seeded generator of NSL-KDD-shaped CSV pairs, cached by seed and version.

The files follow the KDDTrain+/KDDTest+ layout: 41 feature columns in the
NSL-KDD order, then the raw attack label and a difficulty score. The label
mix matches the real files; the feature values are drawn per class so that
attacks differ from normal traffic in the way the real data does (SYN
errors for DoS, rejected connections for probes, shell activity for U2R,
logins for R2L). ``dst_bytes``, the default sort feature, is heavy-tailed
with many zeros.

Beside the CSVs the cache holds ``expect.npz``: quantities computed here,
independently of the program, from the same arrays that were written out.
They are the reference the correctness checks compare the program against:
the per-client z-score statistics of the sorted benign partition, the
energy of the normalised shards, the top singular vectors of the pooled
normalised data, and the normalised test matrix with its labels.
"""

import os
import shutil

import numpy as np

GENERATOR_VERSION = 1
KEEP_SEEDS = 3  # cached fixture pairs kept per checkout (about 25 MB each)

COLUMNS = [
    "duration", "protocol_type", "service", "flag", "src_bytes", "dst_bytes",
    "land", "wrong_fragment", "urgent", "hot", "num_failed_logins",
    "logged_in", "num_compromised", "root_shell", "su_attempted", "num_root",
    "num_file_creations", "num_shells", "num_access_files",
    "num_outbound_cmds", "is_host_login", "is_guest_login", "count",
    "srv_count", "serror_rate", "srv_serror_rate", "rerror_rate",
    "srv_rerror_rate", "same_srv_rate", "diff_srv_rate", "srv_diff_host_rate",
    "dst_host_count", "dst_host_srv_count", "dst_host_same_srv_rate",
    "dst_host_diff_srv_rate", "dst_host_same_src_port_rate",
    "dst_host_srv_diff_host_rate", "dst_host_serror_rate",
    "dst_host_srv_serror_rate", "dst_host_rerror_rate",
    "dst_host_srv_rerror_rate",
]
# The 34 numeric features the program selects by default.
FEATURES = [c for c in COLUMNS
            if c not in ("protocol_type", "service", "flag", "land", "urgent",
                         "num_outbound_cmds", "is_host_login")]

CLASSES = ("normal", "dos", "probe", "r2l", "u2r")
TRAIN_MIX = (67343, 45927, 11656, 995, 52)   # KDDTrain+
TEST_MIX = (9711, 7458, 2421, 2754, 200)     # KDDTest+

# Raw attack names per class with their relative frequency in each file.
TRAIN_NAMES = (
    {"normal": 1},
    {"neptune": 41214, "smurf": 2646, "back": 956, "teardrop": 892,
     "pod": 201, "land": 18},
    {"satan": 3633, "ipsweep": 3599, "portsweep": 2931, "nmap": 1493},
    {"warezclient": 890, "guess_passwd": 53, "warezmaster": 20, "imap": 11,
     "ftp_write": 8, "multihop": 7, "phf": 4, "spy": 2},
    {"buffer_overflow": 30, "rootkit": 10, "loadmodule": 9, "perl": 3},
)
TEST_NAMES = (
    {"normal": 1},
    {"neptune": 4657, "apache2": 737, "processtable": 685, "smurf": 665,
     "back": 359, "mailbomb": 293, "pod": 41, "teardrop": 12, "land": 7,
     "udpstorm": 2},
    {"mscan": 996, "satan": 735, "saint": 319, "portsweep": 157,
     "ipsweep": 141, "nmap": 73},
    {"guess_passwd": 1231, "warezmaster": 944, "snmpguess": 331,
     "snmpgetattack": 178, "httptunnel": 133, "multihop": 18, "named": 17,
     "sendmail": 14, "xlock": 9, "xsnoop": 4, "ftp_write": 3, "phf": 2,
     "imap": 1},
    {"buffer_overflow": 20, "ps": 15, "rootkit": 13, "xterm": 13,
     "sqlattack": 2, "perl": 2, "loadmodule": 2},
)

# Per-class parameters, in CLASSES order.
CATEGORICAL = {
    "protocol_type": (
        {"tcp": .80, "udp": .15, "icmp": .05}, {"tcp": .88, "icmp": .12},
        {"tcp": .60, "icmp": .30, "udp": .10}, {"tcp": 1.0}, {"tcp": 1.0}),
    "service": (
        {"http": .58, "smtp": .10, "ftp_data": .08, "domain_u": .07,
         "private": .05, "other": .05, "ftp": .03, "telnet": .02,
         "finger": .02},
        {"private": .70, "http": .10, "ecr_i": .10, "other": .10},
        {"private": .30, "eco_i": .30, "other": .20, "http": .10,
         "ftp_data": .10},
        {"ftp_data": .40, "ftp": .30, "telnet": .20, "imap4": .10},
        {"telnet": .60, "ftp_data": .40}),
    "flag": (
        {"SF": .90, "REJ": .05, "S0": .02, "RSTR": .02, "RSTO": .01},
        {"S0": .70, "SF": .20, "REJ": .10},
        {"SF": .40, "REJ": .30, "RSTR": .20, "S0": .10},
        {"SF": .80, "RSTO": .20}, {"SF": 1.0}),
}
# (share of zeros, lognormal mu, lognormal sigma) of byte-like columns.
HEAVY = {
    "duration": ((.92, 4.0, 2.0), (.99, 2.0, 1.0), (.97, 3.0, 2.0),
                 (.60, 5.0, 2.0), (.50, 4.0, 1.5)),
    "src_bytes": ((.05, 5.5, 1.2), (.80, 3.0, 1.0), (.70, 2.0, 1.0),
                  (.05, 6.5, 2.0), (.10, 7.0, 1.5)),
    "dst_bytes": ((.30, 7.0, 2.5), (.95, 3.0, 1.0), (.90, 3.0, 1.5),
                  (.40, 4.0, 2.0), (.20, 8.0, 1.5)),
}
# Probability of a 1 in binary columns.
BINARY = {
    "land": (0, .0004, 0, 0, 0), "logged_in": (.70, .05, .05, .90, 1.0),
    "root_shell": (.001, 0, 0, .01, .50), "su_attempted": (.001, 0, 0, 0, .05),
    "is_host_login": (0, 0, 0, 0, 0), "is_guest_login": (.01, 0, 0, .30, 0),
}
# Poisson means of count columns; caps follow the real value ranges.
COUNTS = {
    "wrong_fragment": (0, .05, 0, 0, 0), "urgent": (0, 0, 0, 0, 0),
    "hot": (.2, 0, 0, 2.0, 3.0), "num_failed_logins": (0, 0, 0, .05, 0),
    "num_compromised": (.02, 0, 0, .1, 1.0), "num_root": (.02, 0, 0, .05, 1.0),
    "num_file_creations": (.01, 0, 0, .2, 1.0), "num_shells": (0, 0, 0, 0, .3),
    "num_access_files": (.01, 0, 0, .05, .2), "num_outbound_cmds": (0,) * 5,
    "count": (8, 180, 3, 2, 1), "srv_count": (10, 12, 3, 2, 1),
    "dst_host_count": (140, 250, 60, 40, 20),
    "dst_host_srv_count": (190, 12, 8, 20, 10),
}
CAPS = {"count": 511, "srv_count": 511, "dst_host_count": 255,
        "dst_host_srv_count": 255}
# (centre, spread) of rate columns, clipped to [0, 1] in hundredths.
RATES = {
    "serror_rate": ((.01, .05), (.75, .30), (.10, .20), (.01, .05), (0, .02)),
    "srv_serror_rate": ((.01, .05), (.75, .30), (.10, .20), (.01, .05), (0, .02)),
    "rerror_rate": ((.05, .10), (.15, .20), (.50, .40), (.05, .10), (0, .05)),
    "srv_rerror_rate": ((.05, .10), (.15, .20), (.50, .40), (.05, .10), (0, .05)),
    "same_srv_rate": ((.98, .05), (.05, .10), (.50, .40), (.90, .10), (1, .02)),
    "diff_srv_rate": ((.02, .05), (.06, .05), (.40, .30), (.05, .10), (0, .02)),
    "srv_diff_host_rate": ((.10, .15), (0, .02), (.30, .30), (.05, .10), (0, .05)),
    "dst_host_same_srv_rate": ((.80, .25), (.05, .10), (.30, .30), (.50, .40), (.40, .40)),
    "dst_host_diff_srv_rate": ((.03, .05), (.06, .05), (.40, .30), (.05, .10), (.05, .10)),
    "dst_host_same_src_port_rate": ((.10, .20), (0, .05), (.70, .30), (.40, .40), (.50, .40)),
    "dst_host_srv_diff_host_rate": ((.03, .05), (0, .02), (.10, .20), (.05, .10), (.05, .10)),
    "dst_host_serror_rate": ((.01, .05), (.75, .30), (.10, .20), (.01, .05), (0, .02)),
    "dst_host_srv_serror_rate": ((.01, .05), (.75, .30), (.10, .20), (.01, .05), (0, .02)),
    "dst_host_rerror_rate": ((.05, .10), (.15, .20), (.50, .40), (.10, .20), (0, .05)),
    "dst_host_srv_rerror_rate": ((.05, .10), (.15, .20), (.50, .40), (.10, .20), (0, .05)),
}
_HUNDREDTHS = np.array([f"{h / 100:.2f}" for h in range(101)])
_SMALL_INTS = np.array([str(i) for i in range(512)])


def _pick(rng, classes, tables):
    """Draw one categorical value per row from its class's table."""
    out = np.empty(classes.shape[0], dtype=object)
    for ci, table in enumerate(tables):
        rows = np.flatnonzero(classes == ci)
        names = list(table)
        probs = np.array([table[n] for n in names], dtype=float)
        out[rows] = np.array(names, dtype=object)[
            rng.choice(len(names), size=rows.size, p=probs / probs.sum())]
    return out


def _per_class(classes, params, draw):
    """Fill one column by calling draw(params, n) for each class's rows."""
    out = np.empty(classes.shape[0])
    for ci, p in enumerate(params):
        rows = np.flatnonzero(classes == ci)
        out[rows] = draw(p, rows.size)
    return out


def generate_table(rng, mix, names):
    """One file's rows: returns (list of 43 string columns, the 34 selected
    features as a float matrix rows x 34, class index per row)."""
    classes = rng.permutation(np.repeat(np.arange(len(CLASSES)), mix))
    n = classes.shape[0]
    text, value = {}, {}
    for col, tables in CATEGORICAL.items():
        text[col] = _pick(rng, classes, tables)
    for col, params in HEAVY.items():
        v = _per_class(classes, params, lambda p, m: np.where(
            rng.random(m) < p[0], 0.0,
            np.floor(rng.lognormal(p[1], p[2], m)) + 1.0))
        value[col], text[col] = v, v.astype(np.int64).astype(str)
    for col, params in BINARY.items():
        v = _per_class(classes, params, lambda p, m: rng.random(m) < p)
        value[col], text[col] = v, _SMALL_INTS[v.astype(np.int64)]
    for col, params in COUNTS.items():
        v = _per_class(classes, params, lambda p, m: rng.poisson(p, m))
        v = np.minimum(v, CAPS.get(col, 511))
        value[col], text[col] = v, _SMALL_INTS[v.astype(np.int64)]
    for col, params in RATES.items():
        h = _per_class(classes, params, lambda p, m: np.clip(np.rint(
            100 * (p[0] + p[1] * rng.standard_normal(m))), 0, 100))
        h = h.astype(np.int64)
        # h / 100 is the double nearest to the written "%.2f" text, so the
        # program parses back exactly these values.
        value[col], text[col] = h / 100.0, _HUNDREDTHS[h]
    label = _pick(rng, classes, names)
    difficulty = np.where(classes == 0, rng.integers(15, 22, n),
                          rng.integers(5, 22, n))
    columns = [text[c] for c in COLUMNS] + [label, difficulty.astype(str)]
    feats = np.column_stack([value[c].astype(float) for c in FEATURES])
    return columns, feats, classes


def _write_csv(path, columns):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(",".join(row) for row in zip(*columns)))
        fh.write("\n")
    os.replace(tmp, path)


def expected_values(train_feats, train_classes, test_feats, test_classes,
                    n_clients, k, sort_feature="dst_bytes"):
    """What the program's CSV path should compute, derived here from the
    generated arrays: benign rows sorted stably by the sort feature, cut
    into n_clients equal contiguous shards (remainder dropped), each
    z-scored with its own statistics (a vanishing spread is zeroed and
    recorded as 1); test rows assigned round-robin to clients and scaled
    with that client's statistics."""
    benign = train_feats[train_classes == 0]
    order = np.argsort(benign[:, FEATURES.index(sort_feature)], kind="stable")
    width = benign.shape[0] // n_clients
    pool = benign[order[:width * n_clients]].T            # d x (N * width)
    means = np.empty((n_clients, pool.shape[0]))
    stds = np.empty_like(means)
    shards = []
    for cid in range(n_clients):
        x = pool[:, cid * width:(cid + 1) * width]
        mean, std = x.mean(axis=1), x.std(axis=1)
        flat = std < 1e-12
        std = np.where(flat, 1.0, std)
        z = (x - mean[:, None]) / std[:, None]
        z[flat, :] = 0.0
        means[cid], stds[cid] = mean, std
        shards.append(z)
    pooled = np.concatenate(shards, axis=1)
    u_ref = np.linalg.svd(pooled, full_matrices=False)[0][:, :k]
    test = test_feats.T
    assign = np.arange(test.shape[1]) % n_clients
    test_z = (test - means[assign].T) / stds[assign].T
    return {"means": means, "stds": stds, "width": np.array(width),
            "energy": np.array(float(np.sum(pooled * pooled))),
            "u_ref": u_ref, "test_z": test_z,
            "test_attack": test_classes != 0}


def fixture_dir(root, seed):
    return os.path.join(root, "fixtures", f"v{GENERATOR_VERSION}-seed{seed}")


def write_fixture(out_dir, seed, n_clients, k, train_mix=TRAIN_MIX,
                  test_mix=TEST_MIX):
    """Generate train.csv, test.csv and expect.npz into out_dir."""
    rng = np.random.default_rng([GENERATOR_VERSION, seed])
    train_cols, train_x, train_c = generate_table(rng, train_mix, TRAIN_NAMES)
    test_cols, test_x, test_c = generate_table(rng, test_mix, TEST_NAMES)
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "train.csv"), train_cols)
    _write_csv(os.path.join(out_dir, "test.csv"), test_cols)
    expect = expected_values(train_x, train_c, test_x, test_c, n_clients, k)
    tmp = os.path.join(out_dir, "expect.tmp.npz")
    np.savez(tmp, **expect)
    os.replace(tmp, os.path.join(out_dir, "expect.npz"))


def ensure_fixture(root, seed, n_clients, k):
    """Return the cached fixture directory for seed, generating it first if
    needed. Older seeds beyond KEEP_SEEDS are evicted."""
    path = fixture_dir(root, seed)
    if not os.path.exists(os.path.join(path, "expect.npz")):
        shutil.rmtree(path, ignore_errors=True)
        write_fixture(path, seed, n_clients, k)
    os.utime(path)
    parent = os.path.dirname(path)
    cached = sorted((os.path.join(parent, d) for d in os.listdir(parent)),
                    key=os.path.getmtime, reverse=True)
    for old in cached[KEEP_SEEDS:]:
        shutil.rmtree(old, ignore_errors=True)
    return path
