"""Gallery data model and on-disk formats.

A gallery lives in a directory with a ``manifest.tsv`` (columns
``set_id <TAB> identity <TAB> relative_path``, identity ``-`` when
unlabelled) and one descriptor file per set: by default the magic ``QTS2``,
two little-endian uint32 counts (n, d) and n*d little-endian float64 values
in row-major order, which reload bit for bit. ``QTS1`` files (float32
values) and CSV files (one exemplar per row) are read as well.

Identity labels, when present, are deliberately gated behind
:meth:`Gallery.evaluation_labels` so that training and retrieval code
never sees them.
"""

from __future__ import annotations

import codecs
import os
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import CorpusError

MANIFEST_NAME = "manifest.tsv"
BINARY_DTYPES = {b"QTS1": "<f4", b"QTS2": "<f8"}
UNLABELLED = "-"


def is_count(v) -> bool:
    """Whether v is an int or numpy integer, and not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _readonly(a: np.ndarray) -> np.ndarray:
    # always copy so freezing never locks a caller-owned array
    out = np.array(a, dtype=np.float64, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class FaceSet:
    """One descriptor set: n_r exemplars of dimension d, rows of `exemplars`."""

    set_id: str
    exemplars: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.exemplars, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise CorpusError(f"set {self.set_id!r}: exemplars must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(arr)):
            row = int(np.where(~np.isfinite(arr).all(axis=1))[0][0])
            raise CorpusError(f"set {self.set_id!r}: non-finite value in exemplar row {row}")
        norms = np.linalg.norm(arr, axis=1)
        if np.any(norms == 0.0):
            row = int(np.where(norms == 0.0)[0][0])
            raise CorpusError(f"set {self.set_id!r}: zero-norm exemplar at row {row}")
        object.__setattr__(self, "exemplars", _readonly(arr))

    @property
    def size(self) -> int:
        return self.exemplars.shape[0]

    @property
    def dim(self) -> int:
        return self.exemplars.shape[1]

    @cached_property
    def unit_exemplars(self) -> np.ndarray:
        """Exemplars scaled to unit norm, one per row; computed on first use."""
        out = self.exemplars / np.linalg.norm(self.exemplars, axis=1, keepdims=True)
        out.setflags(write=False)
        return out

    @cached_property
    def subspace(self) -> np.ndarray:
        """The set's read-only (k, d) `lqts.similarity.fit_subspace` basis at
        the default dimension; fitted on first use, so once per set however
        many proxy selections, rankers and training extractions read it."""
        from .similarity import fit_subspace

        return fit_subspace(self)

    def __eq__(self, other):
        if not isinstance(other, FaceSet):
            return NotImplemented
        return (
            self.set_id == other.set_id
            and self.exemplars.shape == other.exemplars.shape
            and np.array_equal(self.exemplars, other.exemplars)
        )

    def __repr__(self):
        return f"FaceSet({self.set_id!r}, n={self.size}, d={self.dim})"


@dataclass(frozen=True, eq=False)
class Gallery:
    """Immutable ordered collection of sets sharing one descriptor dimension."""

    sets: tuple[FaceSet, ...]
    labels: dict[str, str] | None = None

    def __post_init__(self):
        if not self.sets:
            raise CorpusError("gallery has no sets")
        object.__setattr__(self, "sets", tuple(self.sets))
        ids = [s.set_id for s in self.sets]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise CorpusError(f"duplicate set_id {dup!r} in gallery")
        first = self.sets[0]
        odd = next((s for s in self.sets if s.dim != first.dim), None)
        if odd is not None:
            raise CorpusError(
                f"set {odd.set_id!r}: dimension {odd.dim} does not match "
                f"gallery dimension {first.dim} (from set {first.set_id!r})"
            )
        if self.labels is not None:
            missing = [i for i in ids if i not in self.labels]
            if missing:
                raise CorpusError(f"label map does not cover set_id {missing[0]!r}")
            object.__setattr__(self, "labels", dict(self.labels))
        object.__setattr__(self, "_index", {sid: i for i, sid in enumerate(ids)})

    @property
    def dim(self) -> int:
        return self.sets[0].dim

    @property
    def set_ids(self) -> list[str]:
        return [s.set_id for s in self.sets]

    def index_of(self, set_id: str) -> int:
        try:
            return self._index[set_id]
        except KeyError:
            raise CorpusError(f"unknown set_id {set_id!r}") from None

    def get(self, set_id: str) -> FaceSet:
        return self.sets[self.index_of(set_id)]

    def evaluation_labels(self) -> dict[str, str]:
        """Identity labels, for evaluation only. Raises if the gallery is unlabelled."""
        if self.labels is None:
            raise CorpusError("gallery is unlabelled: identity labels unavailable")
        return dict(self.labels)

    def __len__(self):
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def __eq__(self, other):
        if not isinstance(other, Gallery):
            return NotImplemented
        return self.sets == other.sets and self.labels == other.labels


@dataclass(frozen=True, eq=False)
class ProxyTable:
    """Per-set lists of at most k_p distinct other sets, nearest first
    under a baseline measure.

    Sets whose proxy list is empty (k_p = 0) carry no entry at all, so an
    empty table and a k_p = 0 table round-trip identically through disk.
    """

    k_p: int
    entries: dict[str, tuple[tuple[str, float], ...]]

    def __post_init__(self):
        if not is_count(self.k_p) or self.k_p < 0:
            raise CorpusError(f"k_p must be an integer >= 0 (got {self.k_p!r})")
        clean: dict[str, tuple[tuple[str, float], ...]] = {}
        for sid, plist in self.entries.items():
            plist = tuple((str(p), float(s)) for p, s in plist)
            if any(p == sid for p, _ in plist):
                raise CorpusError(f"proxy list of {sid!r} contains itself")
            if len(plist) > self.k_p:
                raise CorpusError(f"proxy list of {sid!r} longer than k_p={self.k_p}")
            if len({p for p, _ in plist}) < len(plist):
                raise CorpusError(f"proxy list of {sid!r} repeats a proxy")
            scores = [s for _, s in plist]
            if any(a < b for a, b in zip(scores, scores[1:])):
                raise CorpusError(f"proxy list of {sid!r} not sorted by descending score")
            if plist:
                clean[sid] = plist
        object.__setattr__(self, "entries", clean)

    def proxies_of(self, set_id: str, k: int | None = None) -> tuple[tuple[str, float], ...]:
        plist = self.entries.get(set_id, ())
        return plist if k is None else plist[:k]

    def index_pairs(self, gallery: Gallery, of: Iterable[int], k: int | None = None) -> np.ndarray:
        """(set, proxy) gallery-index rows of the sets at the gallery
        positions `of`, each set's first `k` proxies in table order. A set
        id of the table that is not in the gallery raises CorpusError, as an
        unknown proxy does."""
        for set_id in self.entries:
            gallery.index_of(set_id)
        ids = gallery.set_ids
        rows = [(i, gallery.index_of(pid)) for i in of for pid, _ in self.proxies_of(ids[i], k)]
        return np.array(rows, dtype=np.intp).reshape(-1, 2)

    def __eq__(self, other):
        if not isinstance(other, ProxyTable):
            return NotImplemented
        return self.k_p == other.k_p and self.entries == other.entries


# ---------------------------------------------------------------------------
# text files: the one reader and the one writer


def _read_lines(path: str | Path, blob: bytes | None = None) -> Iterator[tuple[str, str]]:
    """Yield ``(path:line, line)`` for each non-blank line of the UTF-8 text file
    at `path` (whose bytes are `blob` if already read), split by `str.splitlines`,
    so CRLF ends are accepted. One leading byte-order mark, which some editors
    write, is dropped. Non-UTF-8 bytes raise CorpusError naming their line."""
    if blob is None:
        blob = Path(path).read_bytes()
    blob = blob.removeprefix(codecs.BOM_UTF8)
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((blob[: exc.start].decode("utf-8") + "_").splitlines())
        raise CorpusError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            yield f"{path}:{lineno}", line


def _split(where: str, line: str, sep: str | None, width: int | None) -> list[str]:
    """The fields of `line` between `sep` (whitespace when None); unless
    `width` is None, any other count raises CorpusError at `where`."""
    fields = line.split(sep)
    if width is None or len(fields) == width:
        return fields
    name = {"\t": "tab", ",": "comma"}.get(sep, "whitespace")
    raise CorpusError(f"{where}: expected {width} {name}-separated columns, found {len(fields)}")


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write `lines` to `path` as UTF-8, each ending in ``\\n``, with no
    newline translation: the one text writer of lqts, reports, rankings and
    CLI sidecars included, whatever the locale."""
    Path(path).write_bytes("".join([f"{line}\n" for line in lines]).encode("utf-8"))


# ---------------------------------------------------------------------------
# gallery I/O


def _load_set_file(path: Path, set_id: str, where: str) -> np.ndarray:
    """The rows of a ``QTS2``, ``QTS1`` or CSV set file; a binary file's are a
    view of its bytes, which `FaceSet` copies once to float64."""
    try:
        blob = path.read_bytes()
    except (OSError, UnicodeEncodeError) as exc:  # the latter: a name the file system cannot encode
        raise CorpusError(f"{where}: set {set_id!r}: cannot read {path}: {exc}") from exc
    dtype = BINARY_DTYPES.get(blob[:4])
    if dtype:
        if len(blob) < 12:
            raise CorpusError(f"set {set_id!r}: truncated binary header in {path}")
        n, d = struct.unpack("<II", blob[4:12])
        expected = 12 + np.dtype(dtype).itemsize * n * d
        if len(blob) != expected:
            raise CorpusError(
                f"set {set_id!r}: binary payload size mismatch in {path} "
                f"(expected {expected} bytes, found {len(blob)})"
            )
        return np.frombuffer(blob, dtype=dtype, offset=12).reshape(n, d)
    # a row with a comma is comma-separated, so an empty field fails float()
    rows, width = [], None
    try:
        for where, line in _read_lines(path, blob):
            fields = _split(where, line, "," if "," in line else None, width)
            width = len(fields)
            rows.append([float(tok) for tok in fields])
    except ValueError as exc:
        raise CorpusError(f"{where}: set {set_id!r}: {exc}") from None
    return np.asarray(rows, dtype=np.float64)


def load_gallery(path: str | Path) -> Gallery:
    """Load a gallery directory; sets come back in manifest order."""
    root = Path(path)
    manifest = root / MANIFEST_NAME
    if not manifest.is_file():
        raise CorpusError(f"missing {MANIFEST_NAME} in {root}")
    sets: list[FaceSet] = []
    identities: dict[str, str] = {}
    for where, line in _read_lines(manifest):
        set_id, identity, rel = _split(where, line, "\t", 3)
        if set_id in identities:
            raise CorpusError(f"{where}: duplicate set_id {set_id!r}")
        identities[set_id] = identity
        exemplars = _load_set_file(root / rel, set_id, where)
        try:
            sets.append(FaceSet(set_id=set_id, exemplars=exemplars))
        except CorpusError as exc:
            raise CorpusError(f"{root / rel}: {exc}") from exc
    if not sets:
        raise CorpusError(f"{manifest}: no sets listed")
    unlabelled = sum(identity == UNLABELLED for identity in identities.values())
    if 0 < unlabelled < len(sets):
        raise CorpusError(f"{manifest}: mixed labelled and unlabelled rows")
    return Gallery(sets=tuple(sets), labels=None if unlabelled else identities)


def save_gallery(gallery: Gallery, path: str | Path, binary: bool = True) -> None:
    """Write a gallery directory: the manifest and one set file per set, in
    ``QTS2`` (``sets/<set_id>.qtsb``) or, with ``binary=False``, CSV."""
    # a path separator or NUL in a set id would name a file outside sets/, a
    # tab or line break in an id or label would split its manifest row, and a
    # "-" label would reload as unlabelled
    for s in gallery.sets:
        label = gallery.labels[s.set_id] if gallery.labels else ""
        if set(s.set_id) & {"/", os.sep, "\0", "\t"} or len(f"_{s.set_id}_".splitlines()) > 1:
            raise CorpusError(f"set {s.set_id!r}: holds a path separator, NUL, tab or line break")
        if label == UNLABELLED or "\t" in label or len(f"_{label}_".splitlines()) > 1:
            raise CorpusError(f"set {s.set_id!r}: label {label!r} is '-' or has a tab or line break")
    root = Path(path)
    (root / "sets").mkdir(parents=True, exist_ok=True)
    ext = "qtsb" if binary else "csv"
    manifest = []
    for s in gallery.sets:
        rel = f"sets/{s.set_id}.{ext}"
        try:
            if binary:
                header = b"QTS2" + struct.pack("<II", *s.exemplars.shape)
                (root / rel).write_bytes(header + s.exemplars.astype("<f8").tobytes())
            else:
                write_lines(root / rel, [",".join(map(repr, row)) for row in s.exemplars.tolist()])
        except UnicodeEncodeError as exc:  # a set id the file system cannot encode
            raise CorpusError(f"{root / rel}: set {s.set_id!r}: cannot write: {exc}") from None
        identity = gallery.labels[s.set_id] if gallery.labels else UNLABELLED
        manifest.append(f"{s.set_id}\t{identity}\t{rel}")
    write_lines(root / MANIFEST_NAME, manifest)


# ---------------------------------------------------------------------------
# proxy table I/O


def save_proxies(table: ProxyTable, path: str | Path) -> None:
    rows = [
        f"{sid}\t{rank}\t{pid}\t{score!r}"
        for sid, plist in table.entries.items()
        for rank, (pid, score) in enumerate(plist, start=1)
    ]
    write_lines(path, [f"# k_p={table.k_p}", *rows])


def _parse(kind, text: str, what: str, where: str):
    try:
        return kind(text)
    except ValueError:
        raise CorpusError(f"{where}: {what} {text!r}") from None


def load_proxies(path: str | Path) -> ProxyTable:
    """Read a proxy table. The header is the ``#`` line whose text after the
    ``#`` starts with ``k_p=``, and that text must be exactly ``k_p=<int>``;
    every other ``#`` line is a comment. A missing or second header, a
    non-integer k_p or rank, a non-numeric score or a list longer than k_p
    raises CorpusError naming the file and line; a list that ProxyTable
    rejects (a repeated proxy, the set itself, unsorted scores) names the
    file."""
    entries: dict[str, list[tuple[str, float]]] = {}
    k_p = None
    for where, line in _read_lines(path):
        if line.startswith("#"):
            header = line[1:].strip()
            if header.startswith("k_p="):
                if k_p is not None:
                    raise CorpusError(f"{where}: second '# k_p=' header")
                k_p = _parse(int, header.removeprefix("k_p="), "non-integer k_p", where)
                if k_p < 0:
                    raise CorpusError(f"{where}: k_p must be >= 0")
            continue
        if k_p is None:
            raise CorpusError(f"{where}: proxy row before the '# k_p=' header")
        sid, rank, pid, score = _split(where, line, "\t", 4)
        plist = entries.setdefault(sid, [])
        if _parse(int, rank, "non-integer rank", where) != len(plist) + 1:
            raise CorpusError(f"{where}: rank {rank} out of order for {sid!r}")
        if len(plist) == k_p:
            raise CorpusError(f"{where}: proxy list of {sid!r} longer than k_p={k_p}")
        plist.append((pid, _parse(float, score, "non-numeric score", where)))
    if k_p is None:
        raise CorpusError(f"{path}:1: missing '# k_p=' header")
    try:
        return ProxyTable(k_p=k_p, entries={k: tuple(v) for k, v in entries.items()})
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# training-feature table and its I/O

# one row per labelled transitivity 5-vector: the vector, its label (1.0
# same identity, 0.0 differing) and the reference/proxy set pair it came from
FEATURE_DTYPE = np.dtype(
    [("s", np.float64, (5,)), ("label", np.float64), ("ref", object), ("proxy", object)]
)


def feature_table(s, label, ref, proxy) -> np.recarray:
    """The training-feature table holding the given columns."""
    table = np.zeros(len(label), dtype=FEATURE_DTYPE).view(np.recarray)
    table.s, table.label, table.ref, table.proxy = s, label, ref, proxy
    return table


def save_features(features: np.recarray, path: str | Path) -> None:
    """Write a feature table as TSV: label, s1..s5, ref_id, proxy_id."""
    values = np.column_stack([features.label, features.s]).tolist()
    rows = zip(values, features.ref, features.proxy)
    write_lines(path, ["\t".join(map(repr, v)) + f"\t{ref}\t{proxy}" for v, ref, proxy in rows])


def load_features(path: str | Path) -> np.recarray:
    """Read a feature table. A label other than 1 or 0, or a non-numeric or
    non-finite value, raises CorpusError naming the file and line."""
    vals, ids = [], []
    for where, line in _read_lines(path):
        parts = _split(where, line, "\t", 8)
        label = _parse(float, parts[0], "label must be 1 or 0, got", where)
        if label not in (0.0, 1.0):
            raise CorpusError(f"{where}: label must be 1 or 0, got {parts[0]!r}")
        s = [_parse(float, v, "non-numeric value", where) for v in parts[1:6]]
        if not np.all(np.isfinite(s)):
            raise CorpusError(f"{where}: non-finite value in {parts[1:6]}")
        vals.append([label, *s])
        ids.append(parts[6:])
    vals = np.array(vals, dtype=np.float64).reshape(-1, 6)
    ids = np.array(ids, dtype=object).reshape(-1, 2)
    return feature_table(vals[:, 1:], vals[:, 0], ids[:, 0], ids[:, 1])


# ---------------------------------------------------------------------------
# regression model I/O


def save_model(model, path: str | Path) -> None:
    """Persist a trained regression model as plain text."""
    cfg = model.config
    header = dict(gamma=cfg.kernel_gamma, epsilon=cfg.epsilon, cost=cfg.cost, bias=model.bias)
    lines = [f"{key}={float(value)!r}" for key, value in header.items()]
    rows = np.column_stack([model.coefficients, model.support_vectors]).tolist()
    write_lines(path, lines + [", ".join(map(repr, row)) for row in rows])


def load_model(path: str | Path):
    """Read a model file. A malformed header value or support-vector line
    raises CorpusError naming the file and line."""
    from .svr import SvrConfig, SvrModel

    lines = list(_read_lines(path))
    n_header = next((i for i, (_, ln) in enumerate(lines[:4]) if "=" not in ln), min(len(lines), 4))
    header: dict[str, float] = {}
    for where, ln in lines[:n_header]:
        key, _, val = (t.strip() for t in ln.partition("="))
        header[key] = _parse(float, val, f"malformed {key} value", where)
    for key in ("gamma", "epsilon", "cost", "bias"):
        if key not in header:
            raise CorpusError(f"{path}: missing header line {key}=")
    # one row per support vector: its dual coefficient, then the vector
    rows = []
    for where, ln in lines[n_header:]:
        fields = _split(where, ln, ",", 6)
        rows.append([_parse(float, t, "non-numeric support vector value", where) for t in fields])
    table = np.asarray(rows, dtype=np.float64).reshape(-1, 6)
    coeff, sv = table[:, 0].copy(), table[:, 1:].copy()
    try:
        config = SvrConfig(
            epsilon=header["epsilon"], cost=header["cost"], kernel_gamma=header["gamma"]
        )
        return SvrModel(
            support_vectors=sv, coefficients=coeff, bias=header["bias"], config=config
        )
    except Exception as exc:
        raise CorpusError(f"{path}: {exc}") from exc
