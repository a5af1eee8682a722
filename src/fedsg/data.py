"""Dataset ingestion and shard preparation: NSL-KDD style CSV parsing,
feature selection, non-i.i.d. partitioning of the benign records by
dst_bytes into equal-width shards, per-client z-score normalization,
and a seeded synthetic low-rank generator with planted anomalies.

Feature matrices are d x B with columns as samples. The training shards,
synthetic or parsed, are one (n_clients, d, B) stack. Parsed shards hold
only benign records, and their z-score statistics are (n_clients, d)
arrays.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (EmptyShard, MissingFeature, ParseError, ShapeMismatch,
                     UnknownLabel, check_numbers)

# The one layout of every NSL-KDD and KDD'99 file: 41 features, then the
# label in column 41, then (NSL-KDD only) a difficulty level.
NSL_KDD_COLUMNS = [
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
LABEL_COLUMN = 41

# Default 34-feature subset: the numeric NSL-KDD features minus the
# categorical columns and four near-constant binary flags. Editable via a
# plain-text feature list (one name per line).
DEFAULT_FEATURES = [
    c for c in NSL_KDD_COLUMNS
    if c not in ("protocol_type", "service", "flag",
                 "land", "urgent", "num_outbound_cmds", "is_host_login")
]
assert len(DEFAULT_FEATURES) == 34

# Raw NSL-KDD attack names grouped into the four intrusion classes.
DEFAULT_LABEL_MAP = {
    "normal": "normal",
    # DoS
    "back": "dos", "land": "dos", "neptune": "dos", "pod": "dos",
    "smurf": "dos", "teardrop": "dos", "apache2": "dos", "udpstorm": "dos",
    "processtable": "dos", "mailbomb": "dos", "worm": "dos",
    # Probe
    "satan": "probe", "ipsweep": "probe", "nmap": "probe",
    "portsweep": "probe", "mscan": "probe", "saint": "probe",
    # R2L
    "guess_passwd": "r2l", "ftp_write": "r2l", "imap": "r2l", "phf": "r2l",
    "multihop": "r2l", "warezmaster": "r2l", "warezclient": "r2l",
    "spy": "r2l", "xlock": "r2l", "xsnoop": "r2l", "snmpguess": "r2l",
    "snmpgetattack": "r2l", "httptunnel": "r2l", "sendmail": "r2l",
    "named": "r2l",
    # U2R
    "buffer_overflow": "u2r", "loadmodule": "u2r", "rootkit": "u2r",
    "perl": "u2r", "sqlattack": "u2r", "xterm": "u2r", "ps": "u2r",
}

LABEL_CLASSES = ("normal", "dos", "probe", "r2l", "u2r")


@dataclass(frozen=True)
class Dataset:
    """Parsed records in columns, in file order: values[:, i] holds the
    selected features of record i, in the order of `features`, and
    labels[i] its class name."""
    values: np.ndarray = field(repr=False)  # d x m, a transposed view
    labels: np.ndarray = field(repr=False)  # m class names
    features: tuple

    def __len__(self):
        return self.labels.shape[0]


def _not_text(path, exc):
    """The ParseError for a file that is not text in exc's encoding."""
    return ParseError(f"{path}: not {exc.encoding} text: {exc.reason}")


def read_feature_list(path):
    """Plain-text feature config: one name per line; blanks and '#'
    comment lines ignored. A file without names, one that names a
    feature twice or one that is not text in the locale's encoding is a
    ParseError."""
    names = {}  # a dict keeps the file's order and finds a name in O(1)
    try:
        with open(path) as fh:
            for line in fh:
                name = line.strip()
                if name in names:
                    raise ParseError(f"{path}: feature {name!r} listed twice")
                if name and not name.startswith("#"):
                    names[name] = None
    except UnicodeDecodeError as exc:
        raise _not_text(path, exc) from None
    if not names:
        raise ParseError(f"{path}: no feature names")
    return list(names)


def load_dataset(path, feature_list=None) -> Dataset:
    """Parse an NSL-KDD CSV (NSL_KDD_COLUMNS, then the label in column
    LABEL_COLUMN, mapped by DEFAULT_LABEL_MAP) into a columnar Dataset
    with the given feature subset, DEFAULT_FEATURES when None (an empty
    list is refused, never replaced).

    Valid input takes no per-row Python. A pass over the file's bytes
    finds the data rows (blank lines and a header on line 0 are skipped)
    and checks their layout. np.loadtxt then parses the path in one C
    pass into a record per row (the features as float64 plus the raw
    label), and each distinct label is mapped once. values is a view of
    those records.

    Raises ParseError with the offending row/column (a non-numeric or
    non-finite value, a short row, or a file without data rows) or for a
    file that is not text in the locale's encoding, UnknownLabel for
    labels outside the map, MissingFeature for an empty feature list or
    unknown feature names. Of several faulty rows, the first in the file
    is named. The CLI exits 2 for each of these.
    """
    features = list(DEFAULT_FEATURES if feature_list is None else feature_list)
    if not features:
        raise MissingFeature("empty feature list")
    try:
        idx = [NSL_KDD_COLUMNS.index(f) for f in features]
    except ValueError:
        bad = next(f for f in features if f not in NSL_KDD_COLUMNS)
        raise MissingFeature(f"{bad!r} is not an NSL-KDD column") from None
    try:
        values, labels = _read_dataset(path, idx)
    except UnicodeDecodeError as exc:
        raise _not_text(path, exc) from None
    return Dataset(values=values.T, labels=labels, features=tuple(features))


def _read_dataset(path, idx):
    """load_dataset on resolved columns: idx are the feature columns'
    positions. Returns the m x d values and the m class names."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")[0] == NSL_KDD_COLUMNS[0]
        encoding = fh.encoding
    # Every rejection below goes to the per-line pass, which names it.
    n_rows, gaps, width, ascii_text, faulty = _check_layout(path, encoding,
                                                            header)
    if faulty:
        _raise_first_fault(path, header, idx)

    # Bytes labels take a quarter of the memory of str ones; loadtxt
    # stores them as latin-1, which holds ASCII text exactly.
    dtype = np.dtype([("values", np.float64, (len(idx),)),
                      ("label", ("S" if ascii_text else "U", max(width, 1)))],
                     align=True)
    # max_rows lets loadtxt allocate the table once. It parses fastest
    # from the path, but takes a line of whitespace for a row and warns
    # of an empty one once max_rows is set, so a file with blank lines
    # between its rows is read as stripped lines without the empty ones.
    with open(path) as fh:
        try:
            table = np.loadtxt(filter(None, map(str.strip, fh)) if gaps
                               else path, delimiter=",", dtype=dtype,
                               usecols=idx + [LABEL_COLUMN],
                               skiprows=int(header), max_rows=n_rows,
                               comments=None, ndmin=1)
        except ValueError:
            _raise_first_fault(path, header, idx)

    raw = table["label"]
    # np.unique copies its input; 8192 rows at a time keep the copy small.
    keys = np.unique(np.concatenate([np.unique(raw[i:i + 8192])
                                     for i in range(0, raw.size, 8192)]))
    names = [DEFAULT_LABEL_MAP.get(k.strip().lower().rstrip("."))
             for k in keys.astype(str)]
    values = table["values"]
    # min and max propagate NaN and reach +-inf, so they are finite only
    # when every value is, without a temporary the size of values.
    if None in names or not np.isfinite([values.min(), values.max()]).all():
        _raise_first_fault(path, header, idx)
    return values, np.array(names)[np.searchsorted(keys, raw)]


# Bytes read at a time by the layout checks, which keep no copy of the
# whole file.
_CHUNK_BYTES = 1 << 18


def _check_layout(path, encoding, header):
    """Whole-file layout checks, one chunk of bytes at a time: split the
    file into lines as text mode does (at \\n, \\r\\n or a lone \\r),
    skip blank lines (empty or all whitespace; a line without commas is
    decoded with `encoding` to tell) and the header, and check that each
    data row has the column count of the first and that no label cell
    (column LABEL_COLUMN) holds a NUL. (np.loadtxt rejects rows too short
    to hold the label; every feature column comes before it.)

    Returns (the number of data rows, whether blank lines fall between
    them, the widest label cell in bytes, whether the file is ASCII,
    whether a check failed; the scan stops at the chunk that fails one).
    Raises ParseError for a file without data rows.
    """
    n_rows, last, n_cols, faulty = 0, -1, None, False
    width, ascii_text, line0, tail = 0, True, 0, b""
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_CHUNK_BYTES)
            buf = tail + chunk
            if not chunk:
                if not buf:
                    break
                buf += b"\n"  # the last line has no line end
            # Cut after the last line end; a final \r may start a \r\n.
            cut = max(buf.rfind(b"\n"), buf.rfind(b"\r", 0, len(buf) - 1)) + 1
            tail = buf[cut:]
            ascii_text = ascii_text and buf.isascii()
            whole = np.frombuffer(buf, np.uint8)
            a = whole[:cut]
            ends = np.flatnonzero(a == 10)
            if b"\r" in buf:
                cr = np.flatnonzero(a == 13)
                ends = np.sort(np.r_[ends, cr[whole[cr + 1] != 10]])
            # Line i is buf[starts[i]:ends[i]], with the \r of a \r\n.
            starts = np.r_[0, ends + 1][:-1]
            cpos = np.flatnonzero(a == 44)
            first = np.searchsorted(cpos, starts)
            n = np.searchsorted(cpos, ends) - first
            data = (n > 0) | (ends > starts)
            # Only a line without commas can be all whitespace; valid
            # files have such lines only as blank lines.
            for i in np.flatnonzero((n == 0) & data):
                data[i] = not buf[starts[i]:ends[i]].decode(encoding).isspace()
            data[:int(header and not line0)] = False
            lines = np.flatnonzero(data)
            if lines.size:
                n_cols = n_cols or int(n[lines[0]]) + 1
                faulty = faulty or bool((n[lines] != n_cols - 1).any())
                n_rows += lines.size
                last = line0 + int(lines[-1])
            # Each label cell runs from after the comma before it to the
            # comma after it or the line end.
            has = np.flatnonzero(n >= LABEL_COLUMN)
            k = first[has] + LABEL_COLUMN
            lo = cpos[k - 1] + 1
            hi = ends[has]
            after = n[has] > LABEL_COLUMN
            hi[after] = cpos[k[after]]
            if has.size:
                width = max(width, int((hi - lo).max()))
            # numpy's fixed-width strings drop trailing NULs, and a NUL
            # that only whitespace follows becomes trailing when a file
            # with blank lines is read as stripped lines. So a label cell
            # holding a NUL byte anywhere, never a label-map key, is a
            # fault found here.
            if not faulty and buf.find(b"\0", 0, cut) >= 0:
                zeros = np.flatnonzero(a == 0)
                faulty = bool(((np.searchsorted(zeros, hi)
                                > np.searchsorted(zeros, lo))
                               & data[has]).any())
            line0 += ends.size
            if faulty or not chunk:
                break
    if n_cols is None:
        raise ParseError(f"{path}: no data rows")
    return n_rows, last + 1 - header != n_rows, width, ascii_text, faulty


def _raise_first_fault(path, header, idx):
    """The one per-line pass, run only after a check on the fast path
    failed: raise the file's first fault, in file order. Each data row
    must have the column count of the first, which must hold the label
    column (and so every feature column before it), and a mapped label;
    np.loadtxt then parses the rows that pass as stripped lines and
    names the first unparsable cell. The first non-finite value comes
    last."""
    rows, parts = [], None

    def checked_lines(fh):
        nonlocal parts
        n_cols = None
        for row_no, line in enumerate(fh):
            line = line.strip()
            if not line or (header and row_no == 0):
                continue
            parts = line.split(",")
            if n_cols is None:
                n_cols = len(parts)
                if LABEL_COLUMN >= n_cols:
                    raise ParseError(f"row {row_no}: no label column "
                                     f"{LABEL_COLUMN}")
            if len(parts) != n_cols:
                raise ParseError(f"row {row_no}: expected {n_cols} columns, "
                                 f"got {len(parts)}")
            raw_label = parts[LABEL_COLUMN].strip().lower().rstrip(".")
            if raw_label not in DEFAULT_LABEL_MAP:
                raise UnknownLabel(f"row {row_no}: label {raw_label!r}")
            rows.append(row_no)
            yield line

    with open(path) as fh:
        try:
            values = np.loadtxt(checked_lines(fh), delimiter=",", usecols=idx,
                                comments=None, ndmin=2)
        except UnicodeDecodeError:
            raise  # the file's fault, not a cell's: load_dataset names it
        except ValueError as exc:
            # loadtxt converts each line as it reads it, so the failing
            # cell is in the last line the generator yielded.
            for col_i in idx:
                try:
                    float(parts[col_i])
                except ValueError:
                    raise ParseError(
                        f"row {rows[-1]}, column {NSL_KDD_COLUMNS[col_i]!r}: "
                        f"non-numeric value {parts[col_i]!r}") from None
            raise ParseError(f"row {rows[-1]}: {exc}") from None
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise ParseError(f"row {rows[i]}, column {NSL_KDD_COLUMNS[idx[j]]!r}: "
                         f"non-finite value {float(values[i, j])!r}")
    raise ParseError(f"{path}: cannot be parsed")  # a backstop


# The feature partition_non_iid sorts the benign records by.
SORT_FEATURE = "dst_bytes"


def partition_non_iid(dataset: Dataset, n_clients):
    """Sort the benign records by SORT_FEATURE (stable, so ties keep file
    order) and slice them into n_clients contiguous shards of equal
    width; the trailing remainder is dropped. Attack records are left
    out, so shards are pure training material.

    Returns (shards as one C-contiguous (n_clients, d, width) stack,
    n_dropped). Fewer than one client, or more clients than benign
    records, is an EmptyShard; a dataset without SORT_FEATURE is a
    MissingFeature.
    """
    if n_clients < 1:
        raise EmptyShard(f"n_clients must be at least 1, got {n_clients}")
    try:
        fpos = dataset.features.index(SORT_FEATURE)
    except ValueError:
        raise MissingFeature(f"sort feature {SORT_FEATURE!r} not in feature list")
    pool = np.flatnonzero(dataset.labels == "normal")
    if n_clients > pool.size:
        raise EmptyShard(f"{n_clients} clients but only {pool.size} benign "
                         f"records")
    pool = pool[np.argsort(dataset.values[fpos, pool], kind="stable")]
    width = pool.size // n_clients
    chunks = pool[:width * n_clients].reshape(n_clients, width)
    # Each client gathers its whole records (contiguous rows of the
    # parsed table) and copies them, transposed, into its slice of the
    # stack: shards[i, j, b] is feature j of client i's b-th record.
    records = dataset.values.T
    shards = np.empty((n_clients, records.shape[1], width))
    for shard, chunk in zip(shards, chunks):
        shard[...] = records[chunk].T
    return shards, pool.size - width * n_clients


# A std below this is a feature without spread: zscore_fit_apply records
# it as 1, and eval refuses a stored one (a smaller std would overflow).
STD_FLOOR = 1e-12


def zscore_fit_apply(shards):
    """Per-feature z-scoring of each client's shard with that client's
    own statistics. Features with a std below STD_FLOOR are zeroed and
    their std recorded as 1.

    shards is an (n_clients, d, B) stack; returns (z, means, stds) with
    means and stds (n_clients, d). The statistics are summed along
    contiguous rows, which rounds as a per-shard row-major reduction
    does."""
    x = np.ascontiguousarray(shards, dtype=float)
    if x.ndim != 3 or x.size == 0:
        raise EmptyShard(f"expected a non-empty (n_clients, d, B) stack of "
                         f"shards, got shape {x.shape}")
    means = x.mean(axis=2)
    stds = x.std(axis=2)
    degenerate = stds < STD_FLOOR
    stds[degenerate] = 1.0
    z = x - means[..., None]
    z /= stds[..., None]
    z[degenerate] = 0.0
    return z, means, stds


def apply_zscore(mean, std, x) -> np.ndarray:
    """Transform new samples (d x m) with one previously fitted (d,)
    mean/std pair. Any other shape is a ShapeMismatch, never a
    broadcast."""
    x = np.asarray(x, dtype=float)
    mean, std = np.asarray(mean), np.asarray(std)
    if not (x.ndim == 2 and mean.shape == std.shape == x.shape[:1]):
        raise ShapeMismatch(f"statistics {mean.shape}/{std.shape} do not "
                            f"fit samples {x.shape} as (d,)")
    return (x - mean[:, None]) / std[:, None]


# Records that zscore_round_robin z-scores at a time, rounded up to whole
# rounds of clients.
_ZSCORE_BLOCK = 4096


def zscore_round_robin(means, stds, x) -> np.ndarray:
    """Z-score the d x m records x, record i with the statistics of
    client i mod n, from the (n, d) means and stds that train stored.
    Returns a C-ordered d x m matrix; each element is (x - mean) / std,
    rounded as apply_zscore rounds it. A statistics shape other than
    (n, d), n >= 1, is a ShapeMismatch.

    No per-record statistics are gathered: the first q*n records, as
    (d, q, n) views of x, take the (d, 1, n) statistics by broadcasting,
    and the last m - q*n records take the first clients'."""
    x = np.asarray(x, dtype=float)
    means, stds = np.asarray(means), np.asarray(stds)
    if not (x.ndim == means.ndim == 2 and means.shape == stds.shape
            and means.shape[0] >= 1 and means.shape[1] == x.shape[0]):
        raise ShapeMismatch(f"statistics {means.shape}/{stds.shape} do not "
                            f"fit samples {x.shape} as (n_clients, d)")
    (n, d), m = means.shape, x.shape[1]
    full = m - m % n
    mu, sigma = means.T[:, None], stds.T[:, None]
    z = np.empty((d, m))
    # Parsed records are rows, so each of the d rows of z reads x with a
    # stride of a whole record. Blocks of a few thousand records (a few MB
    # of x and z) took half the time of one pass over the 22,544 records
    # of an NSL-KDD-sized test set. Splitting the record axis gives views
    # of x and z, never copies.
    step = -(-_ZSCORE_BLOCK // n) * n
    for j in range(0, full, step):
        cols = slice(j, min(j + step, full))
        rounds = z[:, cols].reshape(d, -1, n)
        np.subtract(x[:, cols].reshape(d, -1, n), mu, out=rounds)
        rounds /= sigma
    rest = z[:, full:]
    np.subtract(x[:, full:], mu[:, 0, :m - full], out=rest)
    rest /= sigma[:, 0, :m - full]
    return z


def filter_slice(matrix, labels, keep_classes):
    """Evaluation-slice filter: keep normal plus the listed attack
    classes; returns (matrix subset, boolean attack labels). The last
    axis indexes records, so a d x m matrix and a length-m vector of
    scores both work. A class outside LABEL_CLASSES is an UnknownLabel."""
    labels = np.asarray(labels)
    keep = ["normal"] + [c.strip().lower() for c in keep_classes]
    unknown = [c for c in keep if c not in LABEL_CLASSES]
    if unknown:
        raise UnknownLabel(f"slice classes {unknown} are not in "
                           f"{list(LABEL_CLASSES)}")
    mask = np.isin(labels, keep)
    return np.asarray(matrix)[..., mask], labels[mask] != "normal"


@dataclass(frozen=True)
class SynthSpec:
    d: int = 34
    width: int = 80          # samples per client shard
    n_clients: int = 20
    rank: int = 3
    noise: float = 0.05
    anomaly_fraction: float = 0.05
    anomaly_offset: float = 0.5   # magnitude of the off-subspace shift
    n_test: int = 2000
    seed: int = 0

    def __post_init__(self):
        check_numbers(self, ("d", "width", "n_clients", "rank", "n_test",
                             "seed"),
                      ("noise", "anomaly_fraction", "anomaly_offset"))
        if min(self.d, self.width, self.n_clients, self.rank, self.n_test) < 1:
            raise ValueError("d, width, n_clients, rank and n_test must be "
                             "at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.rank > min(self.d, self.width):
            raise ValueError("rank must be <= min(d, width)")
        if not 0.0 <= self.anomaly_fraction < 1.0:
            raise ValueError("anomaly_fraction must be in [0, 1)")
        if self.anomaly_fraction > 0.0 and self.rank == self.d:
            raise ValueError("anomaly_fraction must be 0 when rank == d: "
                             "anomalies are shifted off the rank-r "
                             "subspace, and rank == d leaves no direction")
        if not np.isfinite([self.noise, self.anomaly_offset]).all():
            raise ValueError("noise and anomaly_offset must be finite")


def generate_synthetic(spec: SynthSpec):
    """Seeded low-rank benchmark with planted anomalies.

    Benign samples live near a shared rank-r subspace; each client draws
    coefficients with its own skewed per-direction scales (non-i.i.d.),
    while the test set mixes all directions. Anomalies are benign samples
    shifted by anomaly_offset along a direction orthogonal to the true
    subspace.

    Each client is drawn straight into its slice of one preallocated
    stack. Returns (train shards as one C-contiguous (n_clients, d, width)
    stack, test matrix d x n_test, boolean labels, true basis d x r).
    """
    rng = np.random.default_rng(spec.seed)
    d, r = spec.d, spec.rank
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
    u_true = basis[:, :r]
    u_perp = basis[:, r:]
    scales = np.linspace(3.0, 1.0, r)

    shards = np.empty((spec.n_clients, d, spec.width))
    for x in shards:
        # Skewed per-client energy across the true directions.
        w = rng.dirichlet(np.full(r, 0.3))
        coeff = (scales * np.sqrt(r * w))[:, None] * rng.standard_normal(
            (r, spec.width))
        rng.standard_normal(out=x)
        x *= spec.noise
        x += u_true @ coeff

    coeff = scales[:, None] * rng.standard_normal((r, spec.n_test))
    test = u_true @ coeff + spec.noise * rng.standard_normal((d, spec.n_test))
    n_anom = int(round(spec.anomaly_fraction * spec.n_test))
    labels = np.zeros(spec.n_test, dtype=bool)
    if n_anom:
        which = rng.choice(spec.n_test, size=n_anom, replace=False)
        labels[which] = True
        dirs = u_perp @ rng.standard_normal((d - r, n_anom))
        dirs /= np.linalg.norm(dirs, axis=0)
        test[:, which] += spec.anomaly_offset * dirs
    return shards, test, labels, u_true
