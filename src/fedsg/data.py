"""Dataset ingestion and shard preparation: NSL-KDD style CSV parsing
into the 34 DEFAULT_FEATURES columns (np.loadtxt also checks the column
counts; only a file it refuses is parsed line by line), non-i.i.d.
partitioning of the benign records by dst_bytes into equal-width
shards, per-client z-score normalization, and a seeded synthetic
low-rank generator with planted anomalies.

Feature matrices are d x B with columns as samples. The training shards,
synthetic or parsed, are one (n_clients, d, B) stack. Parsed shards hold
only benign records, and their z-score statistics are (n_clients, d)
arrays.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (EmptyShard, ParseError, ShapeMismatch, UnknownLabel,
                     check_numbers)

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

# The 34 features every CSV is read into: the numeric NSL-KDD features
# minus the categorical columns and four near-constant binary flags.
DEFAULT_FEATURES = [
    c for c in NSL_KDD_COLUMNS
    if c not in ("protocol_type", "service", "flag",
                 "land", "urgent", "num_outbound_cmds", "is_host_login")
]
assert len(DEFAULT_FEATURES) == 34

# Their positions among NSL_KDD_COLUMNS, in the same order.
_FEATURE_COLUMNS = [NSL_KDD_COLUMNS.index(f) for f in DEFAULT_FEATURES]

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
    DEFAULT_FEATURES of record i, in that order, and labels[i] its class
    name."""
    values: np.ndarray = field(repr=False)  # d x m, a transposed view
    labels: np.ndarray = field(repr=False)  # m class names

    def __len__(self):
        return self.labels.shape[0]


def load_dataset(path) -> Dataset:
    """Parse an NSL-KDD CSV (NSL_KDD_COLUMNS, then the label in column
    LABEL_COLUMN, mapped by DEFAULT_LABEL_MAP) into a columnar Dataset
    of its DEFAULT_FEATURES.

    Blank lines and a header on line 0 are skipped. Valid input takes no
    per-row Python: after a pass over the bytes for a NUL, np.loadtxt
    parses the path in one C pass into a record per row (the features as
    float64, the raw label as bytes and a byte of each other column),
    checking that every row has the column count of the first, and each
    distinct label is mapped once. values is a view of those records.
    Valid files that np.loadtxt refuses or that these fixed-width records
    cannot hold exactly are parsed line by line instead: one with a line
    of whitespace, a NUL byte outside a label, a label that is not ASCII
    (such as "\u2003neptune") or one that fills its field (_LABEL_BYTES),
    and a cell outside the features that is not latin-1 text.

    Raises ParseError with the offending row/column (a non-numeric or
    non-finite value, a row whose column count is not the first row's,
    or a file without data rows) or for a file that is not text in the
    locale's encoding, and UnknownLabel for labels outside the map. Of
    several faulty rows, the first in the file is named. The CLI exits 2
    for each of these.
    """
    try:
        values, labels = _read_dataset(path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not {exc.encoding} text: "
                         f"{exc.reason}") from None
    return Dataset(values=values.T, labels=labels)


def _read_dataset(path):
    """load_dataset's parse: returns the m x d values and the m class
    names.

    np.loadtxt reads the path once, with no row bound, and skips empty
    lines. A file it refuses goes to _read_line_by_line, as do a NUL byte,
    a label that is not ASCII or fills its field, an unmapped label and a
    non-finite value; so does a file with a line of whitespace, which
    np.loadtxt takes for a row."""
    with open(path) as fh:
        lines = ((i, s) for i, line in enumerate(fh) if (s := line.strip()))
        row_no, first = next(lines, (0, ""))
        header = row_no == 0 and first.split(",")[0] == NSL_KDD_COLUMNS[0]
        if header:
            first = next(lines, (0, ""))[1]
    # loadtxt's fixed-width bytes would drop a NUL that ends a label, so a
    # file with a NUL takes the per-line pass. Chunks, not one read: a freed
    # whole-file buffer raises malloc's mmap threshold, and loadtxt's
    # growing table is then copied on the heap.
    with open(path, "rb") as fh:
        nul = any(b"\0" in chunk
                  for chunk in iter(lambda: fh.read(1 << 20), b""))
    n_cols = first.count(",") + 1
    if nul or n_cols <= LABEL_COLUMN:  # no data rows, or no label column
        return _read_line_by_line(path, header)

    try:
        table = np.loadtxt(path, delimiter=",", dtype=_row_dtype(n_cols),
                           skiprows=int(header), comments=None, ndmin=1)
    except ValueError:
        return _read_line_by_line(path, header)

    records = table.view({"names": ["values", "label"],
                          "formats": [("f8", (len(_FEATURE_COLUMNS),)),
                                      f"S{_LABEL_BYTES}"],
                          "itemsize": table.itemsize})
    values, raw = records["values"], records["label"]
    # np.unique copies its input; 8192 rows at a time keep the copy small.
    keys = np.unique(np.concatenate([np.unique(raw[i:i + 8192])
                                     for i in range(0, raw.size, 8192)]))
    # loadtxt stores a label as latin-1 and cuts a longer one to the
    # field's width, so only an ASCII label shorter than the field is
    # mapped here.
    names = [DEFAULT_LABEL_MAP.get(k.decode().strip().lower().rstrip("."))
             if k.isascii() and len(k) < _LABEL_BYTES else None
             for k in keys.tolist()]
    # min and max propagate NaN and reach +-inf, so they are finite only
    # when every value is, without a temporary the size of values.
    if None in names or not np.isfinite([values.min(), values.max()]).all():
        return _read_line_by_line(path, header)
    return values, np.array(names)[np.searchsorted(keys, raw)]


# Width of the label field: every DEFAULT_LABEL_MAP key with a trailing
# "." fits with room for padding.
_LABEL_BYTES = 48


def _row_dtype(n_cols):
    """The record dtype np.loadtxt reads a row of n_cols columns into: one
    field per column, in column order. The _FEATURE_COLUMNS are float64
    fields packed in their order from offset 0, the label a
    _LABEL_BYTES-byte field after them, and every other column a 1-byte
    field after that (loadtxt cuts a string to its field)."""
    cols = _FEATURE_COLUMNS
    d = len(cols)
    spare = itertools.count(8 * d + _LABEL_BYTES)
    formats, offsets = zip(*[
        ("f8", 8 * cols.index(c)) if c in cols
        else (f"S{_LABEL_BYTES}", 8 * d) if c == LABEL_COLUMN
        else ("S1", next(spare)) for c in range(n_cols)])
    return np.dtype({"names": [f"c{c}" for c in range(n_cols)],
                     "formats": formats, "offsets": offsets,
                     # whole float64s keep every row's values aligned
                     "itemsize": -(-next(spare) // 8) * 8})


def _read_line_by_line(path, header):
    """The one per-line pass, for a file the fast read refuses: raise the
    file's first fault, in file order, or return (values, labels) as
    _read_dataset does when there is none. Each data row must have the
    column count of the first, which must hold the label column (and so
    every feature column before it), and a mapped label; np.loadtxt then
    parses the rows that pass as stripped lines and the first cell it
    refuses is named. The first non-finite value comes last."""
    rows, names, parts = [], [], None

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
            names.append(DEFAULT_LABEL_MAP[raw_label])
            yield line

    with open(path) as fh:
        lines = checked_lines(fh)
        first = next(lines, None)
        if first is None:
            raise ParseError(f"{path}: no data rows")
        try:
            values = np.loadtxt(itertools.chain([first], lines),
                                delimiter=",", usecols=_FEATURE_COLUMNS,
                                comments=None, ndmin=2)
        except UnicodeDecodeError:
            raise  # the file's fault, not a cell's: load_dataset names it
        except ValueError as exc:
            # loadtxt converts each line as it reads it, so the failing
            # cell is in the last line the generator yielded. It reads a
            # cell as float() of the stripped cell, if that is ASCII
            # without "_" (float() alone takes "1_000" and non-ASCII
            # digits, and refuses a number padded with "\x1c").
            for col_i in _FEATURE_COLUMNS:
                cell = parts[col_i].strip()
                try:
                    if not cell.isascii() or "_" in cell:
                        raise ValueError(cell)
                    float(cell)
                except ValueError:
                    raise ParseError(
                        f"row {rows[-1]}, column {NSL_KDD_COLUMNS[col_i]!r}: "
                        f"non-numeric value {parts[col_i]!r}") from None
            raise ParseError(f"row {rows[-1]}: {exc}") from None
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise ParseError(f"row {rows[i]}, "
                         f"column {NSL_KDD_COLUMNS[_FEATURE_COLUMNS[j]]!r}: "
                         f"non-finite value {float(values[i, j])!r}")
    return values, np.array(names)


# The feature partition_non_iid sorts the benign records by.
SORT_FEATURE = "dst_bytes"


def partition_non_iid(dataset: Dataset, n_clients):
    """Sort the benign records by SORT_FEATURE (stable, so ties keep file
    order) and slice them into n_clients contiguous shards of equal
    width; the trailing remainder is dropped. Attack records are left
    out, so shards are pure training material.

    Returns (shards as one C-contiguous (n_clients, d, width) stack,
    n_dropped). Fewer than one client, or more clients than benign
    records, is an EmptyShard.
    """
    if n_clients < 1:
        raise EmptyShard(f"n_clients must be at least 1, got {n_clients}")
    fpos = DEFAULT_FEATURES.index(SORT_FEATURE)
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
