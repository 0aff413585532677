import codecs
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lqts.corpus import (
    FaceSet,
    Gallery,
    ProxyTable,
    feature_table,
    load_features,
    load_gallery,
    load_model,
    load_proxies,
    save_features,
    save_gallery,
    save_model,
    save_proxies,
)
from lqts.errors import CorpusError
from lqts.svr import SvrConfig, SvrModel, predict

from conftest import save_csv_gallery, tiny_gallery


# 0, 1, the smallest subnormal, a mid-range subnormal and values whose repr
# needs 17 significant digits
EDGE_VALUES = [0.0, 1.0, 5e-324, 1.2345e-310, 0.30000000000000004, 0.9999999999999999]
values = st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def galleries(draw):
    """Unlabelled galleries of 1-4 sets with non-ASCII ids, 1-4 rows of
    dimension 1-4 drawn from `values` and -0.0; a row whose norm underflows
    to 0 or overflows to inf, which FaceSet rejects, is drawn again."""
    dim = draw(st.integers(1, 4))
    row = st.lists(values | st.just(-0.0), min_size=dim, max_size=dim).filter(
        lambda r: 0 < np.linalg.norm([r], axis=1)[0] < np.inf
    )
    set_id = st.text("aé名ü0_-.", min_size=1, max_size=4)
    ids = draw(st.lists(set_id, min_size=1, max_size=4, unique=True))
    return Gallery(sets=tuple(FaceSet(i, draw(st.lists(row, min_size=1, max_size=4))) for i in ids))


def binary_set_file(n, d, flat, magic=b"QTS2"):
    return magic + struct.pack("<II", n, d) + np.array(flat, dtype="<f8").tobytes()


def write_gallery_dir(tmp_path, rows, files):
    root = tmp_path / "gal"
    (root / "sets").mkdir(parents=True)
    (root / "manifest.tsv").write_text("".join(rows))
    for rel, text in files.items():
        (root / rel).write_text(text)
    return root


class TestFaceSet:
    def test_rejects_nan(self):
        with pytest.raises(CorpusError, match="row 1"):
            FaceSet("x", np.array([[1.0, 2.0], [np.nan, 1.0]]))

    def test_rejects_zero_norm(self):
        with pytest.raises(CorpusError, match="zero-norm"):
            FaceSet("x", np.array([[1.0, 2.0], [0.0, 0.0]]))

    def test_rejects_a_norm_that_overflows(self):
        # finite values whose norm is inf would scale to a row of zeros
        with pytest.raises(CorpusError, match=re.escape("set 'x': overflowing-norm exemplar at row 1")):
            FaceSet("x", np.array([[1.0, 2.0], [1e200, 1.0]]))
        assert np.linalg.norm(FaceSet("y", [[1e154, 1.0]]).unit_exemplars) == 1.0

    def test_exemplars_read_only(self):
        s = FaceSet("x", np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            s.exemplars[0, 0] = 5.0


class TestGalleryLoad:
    def test_load_three_sets(self, tmp_path):
        rows = [f"s{i}\t-\tsets/s{i}.csv\n" for i in range(3)]
        files = {f"sets/s{i}.csv": "1.0,0.5\n0.25,2.0\n" for i in range(3)}
        g = load_gallery(write_gallery_dir(tmp_path, rows, files))
        assert len(g) == 3 and g.dim == 2
        assert g.set_ids == ["s0", "s1", "s2"]
        assert g.labels is None

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CorpusError, match="manifest"):
            load_gallery(tmp_path)

    def test_nul_in_a_set_path_names_the_manifest_line(self, tmp_path):
        rows = ["a\t-\tsets/a.csv\n", "b\t-\tsets/b\0.qtsb\n"]
        root = write_gallery_dir(tmp_path, rows, {"sets/a.csv": "1.0,2.0\n"})
        message = f"{root / 'manifest.tsv'}:2: set 'b': cannot read"
        with pytest.raises(CorpusError, match=re.escape(message)):
            load_gallery(root)

    def test_nan_names_set_and_row(self, tmp_path):
        rows = ["bad\t-\tsets/bad.csv\n"]
        files = {"sets/bad.csv": "1.0,2.0\nnan,1.0\n"}
        root = write_gallery_dir(tmp_path, rows, files)
        message = f"{root / 'sets/bad.csv'}: set 'bad': non-finite value in exemplar row 1"
        with pytest.raises(CorpusError, match=re.escape(message)):
            load_gallery(root)

    @pytest.mark.parametrize(
        "text, where, message",
        [
            (b"1.0,,2.0\n", ":1", "could not convert string to float: ''"),
            (b"1.0,2.0,\n", ":1", "could not convert string to float: ''"),
            (b"1.0,oops\n", ":1", "could not convert string to float: 'oops'"),
            (b"1.0,2.0\n\n1.0,2.0,3.0\n", ":3", "expected 2 comma-separated columns, found 3"),
            (b"1.0 2.0\n3.0\n", ":2", "expected 2 whitespace-separated columns, found 1"),
            (b"1.0,2.0\n\xff1.0,2.0\n", ":2", "not UTF-8"),
            (b"", "", "non-empty 2-D matrix"),
            (b"1.0,2.0\n0.0,0.0\n", "", "set 'a': zero-norm exemplar at row 1"),
        ],
        ids=["empty-field", "trailing-comma", "non-numeric", "ragged", "ragged-whitespace",
             "non-utf8", "no-rows", "zero-norm"],
    )
    def test_malformed_set_file_names_file_and_line(self, tmp_path, text, where, message):
        root = write_gallery_dir(tmp_path, ["a\t-\tsets/a.csv\n"], {})
        path = root / "sets/a.csv"
        path.write_bytes(text)
        pattern = re.escape(f"{path}{where}: ") + ".*" + re.escape(message)
        with pytest.raises(CorpusError, match=pattern):
            load_gallery(root)

    def test_crlf_blank_lines_and_whitespace_rows_accepted(self, tmp_path):
        rows = ["a\t-\tsets/a.csv\r\n", "\r\n", "b\t-\tsets/b.csv\r\n"]
        files = {
            "sets/a.csv": "1.0 0.5\r\n \r\n0.25\t2.0\r\n",
            "sets/b.csv": "1.0, 0.5\r\n0.25 ,2.0",
        }
        g = load_gallery(write_gallery_dir(tmp_path, rows, files))
        assert g.set_ids == ["a", "b"]
        for s in g:
            assert s.exemplars.tolist() == [[1.0, 0.5], [0.25, 2.0]]

    def test_dimension_mismatch(self, tmp_path):
        rows = ["a\t-\tsets/a.csv\n", "b\t-\tsets/b.csv\n"]
        files = {"sets/a.csv": "1.0,2.0\n", "sets/b.csv": "1.0,2.0,3.0\n"}
        message = "set 'b': dimension 3 does not match gallery dimension 2"
        with pytest.raises(CorpusError, match=message):
            load_gallery(write_gallery_dir(tmp_path, rows, files))

    def test_duplicate_set_id_names_manifest_line(self, tmp_path):
        rows = ["a\t-\tsets/a.csv\n", "b\t-\tsets/b.csv\n", "a\t-\tsets/b.csv\n"]
        files = {"sets/a.csv": "1.0,2.0\n", "sets/b.csv": "2.0,1.0\n"}
        root = write_gallery_dir(tmp_path, rows, files)
        with pytest.raises(CorpusError, match=re.escape(f"{root / 'manifest.tsv'}:3: duplicate set_id 'a'")):
            load_gallery(root)

    def test_mixed_labelling_rejected(self, tmp_path):
        rows = ["a\tp1\tsets/a.csv\n", "b\t-\tsets/b.csv\n"]
        files = {"sets/a.csv": "1.0\n", "sets/b.csv": "2.0\n"}
        with pytest.raises(CorpusError, match="mixed"):
            load_gallery(write_gallery_dir(tmp_path, rows, files))

    def test_labels_gated_behind_eval_accessor(self, rng):
        g = tiny_gallery(rng, n_sets=2)
        with pytest.raises(CorpusError, match="unlabelled"):
            g.evaluation_labels()
        labelled = Gallery(sets=g.sets, labels={s.set_id: "p" for s in g})
        assert labelled.evaluation_labels() == {"set0": "p", "set1": "p"}


class TestGalleryRoundTrip:
    def test_save_load_identity(self, rng, tmp_path):
        labels = {f"set{i}": f"person{i % 2}" for i in range(4)}
        g = tiny_gallery(rng, n_sets=4, labels=labels)
        save_gallery(g, tmp_path / "out")
        again = load_gallery(tmp_path / "out")
        assert again == g
        assert again.set_ids == g.set_ids

    def test_every_written_file_is_utf8(self, rng, tmp_path):
        ids = ["é0", "名1", "ü-2"]
        labels = {sid: f"Zoë{i % 2}" for i, sid in enumerate(ids)}
        g = Gallery(sets=tuple(FaceSet(sid, rng.normal(size=(3, 4))) for sid in ids), labels=labels)
        table = ProxyTable(k_p=1, entries={"é0": (("名1", 0.9),), "名1": (("ü-2", 0.5),)})
        feats = feature_table(rng.random((2, 5)), np.array([1.0, 0.0]), ids[:2], ids[1:])
        save_gallery(g, tmp_path / "gal")
        save_proxies(table, tmp_path / "p.tsv")
        save_features(feats, tmp_path / "f.tsv")
        save_model(TestModelFile()._model(rng), tmp_path / "m.qts")
        written = sorted(p for p in tmp_path.rglob("*") if p.is_file() and p.parent.name != "sets")
        assert len(written) == 4
        for path in written:
            text = path.read_bytes().decode("utf-8")
            assert text.endswith("\n") and "\r" not in text
        manifest = (tmp_path / "gal" / "manifest.tsv").read_bytes()
        assert all(f"{sid}\t{labels[sid]}\t".encode() in manifest for sid in ids)
        assert load_gallery(tmp_path / "gal") == g
        assert load_proxies(tmp_path / "p.tsv") == table
        again = load_features(tmp_path / "f.tsv")
        assert again.ref.tolist() == ids[:2] and again.proxy.tolist() == ids[1:]

    def test_save_is_deterministic(self, rng, tmp_path):
        g = tiny_gallery(rng, n_sets=3)
        save_gallery(g, tmp_path / "a")
        save_gallery(g, tmp_path / "b")
        for rel in ["manifest.tsv"] + [f"sets/set{i}.qtsb" for i in range(3)]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # norms near 1e308
    @given(g=galleries())
    @example(g=Gallery(sets=(FaceSet("é", [[-2.5]]), FaceSet("名1", [[0.1], [-1.0], [1.5e100]]))))
    @example(g=Gallery(sets=(FaceSet("ü", [EDGE_VALUES[:4], [-0.0, -0.0, *EDGE_VALUES[3:5]]]),)))
    def test_default_writer_reloads_bit_for_bit(self, tmp_path_factory, g):
        root = tmp_path_factory.mktemp("gal")
        save_gallery(g, root)
        again = load_gallery(root)
        assert again.set_ids == g.set_ids
        for s, t in zip(g, again):
            assert (root / "sets" / f"{s.set_id}.qtsb").read_bytes()[:4] == b"QTS2"
            assert t.exemplars.shape == s.exemplars.shape
            assert t.exemplars.tobytes() == s.exemplars.tobytes()  # tells -0.0 from 0.0

    def test_qts1_file_loads_its_float32_values(self, tmp_path):
        # 3e-40 is a float32 subnormal
        values = np.array([[0.1, -2.5, 3e-40], [1.0, 0.0, -0.0]], dtype="<f4")
        root = write_gallery_dir(tmp_path, ["a\t-\tsets/a.qtsb\n"], {})
        (root / "sets/a.qtsb").write_bytes(b"QTS1" + struct.pack("<II", 2, 3) + values.tobytes())
        s = load_gallery(root).get("a")
        assert s.exemplars.dtype == np.float64
        assert s.exemplars.tobytes() == values.astype(np.float64).tobytes()

    def test_qts1_signalling_nan_fails_without_a_numpy_warning(self, tmp_path):
        # 0xffbf8215 is a float32 signalling NaN: its cast to float64 raises
        # numpy's invalid-value flag, which must not print ahead of the error
        payload = np.array([1.0, 2.0], dtype="<f4").tobytes() + bytes([0x15, 0x82, 0xBF, 0xFF, 0, 0, 128, 63])
        root = write_gallery_dir(tmp_path, ["a\t-\tsets/a.qtsb\n"], {})
        path = root / "sets/a.qtsb"
        path.write_bytes(b"QTS1" + struct.pack("<II", 2, 2) + payload)
        message = f"{path}: set 'a': non-finite value in exemplar row 1"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CorpusError, match=re.escape(message)):
                load_gallery(root)

    @pytest.mark.parametrize(
        "blob, message",
        [
            (b"QTS2\x01\x00\x00\x00", "set 'a': truncated binary header in {path}"),
            (
                binary_set_file(2, 2, [1.0, 2.0, 3.0]),
                "set 'a': binary payload size mismatch in {path} (expected 44 bytes, found 36)",
            ),
            (
                binary_set_file(2, 2, [1.0, 2.0, 3.0, 4.0, 5.0]),
                "set 'a': binary payload size mismatch in {path} (expected 44 bytes, found 52)",
            ),
            (
                binary_set_file(1, 2, [1.0, 2.0], magic=b"QTS1"),
                "set 'a': binary payload size mismatch in {path} (expected 20 bytes, found 28)",
            ),
            (binary_set_file(0, 3, []), "{path}: set 'a': exemplars must be a non-empty 2-D"),
            (binary_set_file(2, 0, []), "{path}: set 'a': exemplars must be a non-empty 2-D"),
            (
                binary_set_file(2, 2, [1.0, 2.0, float("nan"), 1.0]),
                "{path}: set 'a': non-finite value in exemplar row 1",
            ),
            (
                binary_set_file(2, 2, [float("-inf"), 2.0, 1.0, 1.0]),
                "{path}: set 'a': non-finite value in exemplar row 0",
            ),
            (
                binary_set_file(2, 2, [1.0, 2.0, 0.0, -0.0]),
                "{path}: set 'a': zero-norm exemplar at row 1",
            ),
        ],
        ids=["short-header", "payload-short", "payload-long", "qts1-payload-of-float64",
             "n-zero", "d-zero", "nan", "inf", "zero-norm"],
    )
    def test_malformed_binary_file_names_the_file(self, tmp_path, blob, message):
        root = write_gallery_dir(tmp_path, ["a\t-\tsets/a.qtsb\n"], {})
        path = root / "sets/a.qtsb"
        path.write_bytes(blob)
        with pytest.raises(CorpusError, match=re.escape(message.format(path=path))):
            load_gallery(root)


    @pytest.mark.parametrize(
        "set_id",
        ["../../escaped", "a/b", "a\0b", "a\tb", "a\rb", "a\nb", "a\x85b", "ok\udcff", "ok\ud800"],
        ids=["parent-dirs", "slash", "nul", "tab", "cr", "lf", "nel", "escaped-byte", "surrogate"],
    )
    def test_unsafe_set_id_rejected_before_any_write(self, rng, tmp_path, set_id):
        # dotted ids name files inside sets/, so the error names set_id;
        # "ok\udcff" is what os.fsdecode gives for a file name that is not UTF-8
        ids = ["..", "a..b", set_id]
        g = Gallery(sets=tuple(FaceSet(sid, rng.normal(size=(2, 3))) for sid in ids))
        with pytest.raises(CorpusError, match=re.escape(f"set {set_id!r}: holds a path separator")):
            save_gallery(g, tmp_path / "out" / "gal")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "labels",
        [
            {"a": "p\t1", "b": "q"},
            {"a": "p\r1", "b": "q"},
            {"a": "p\n1", "b": "q"},
            {"a": "p\x851", "b": "q"},
            {"a": "p\udcff", "b": "q"},
            {"a": "-", "b": "q"},
            {"a": "-", "b": "-"},
        ],
        ids=["tab", "cr", "lf", "nel", "non-utf8", "one-dash", "all-dash"],
    )
    def test_unsafe_label_rejected_before_any_write(self, rng, tmp_path, labels):
        # each would reload as another gallery: a split row, mixed rows, or unlabelled
        sets = tuple(FaceSet(sid, rng.normal(size=(2, 3))) for sid in labels)
        g = Gallery(sets=sets, labels=labels)
        with pytest.raises(CorpusError, match=re.escape(f"set 'a': label {labels['a']!r}")):
            save_gallery(g, tmp_path / "out" / "gal")
        assert not any(tmp_path.iterdir())

    def test_labels_that_only_contain_a_dash_round_trip(self, rng, tmp_path):
        labels = {"a": "-p", "b": "p-", "c": "--", "d": ""}
        sets = tuple(FaceSet(sid, rng.normal(size=(2, 3))) for sid in labels)
        g = Gallery(sets=sets, labels=labels)
        save_gallery(g, tmp_path / "gal")
        assert load_gallery(tmp_path / "gal") == g


class TestProxyTable:
    def test_no_self_proxy(self):
        with pytest.raises(CorpusError, match="itself"):
            ProxyTable(k_p=1, entries={"a": (("a", 1.0),)})

    def test_unsorted_rejected(self):
        with pytest.raises(CorpusError, match="sorted"):
            ProxyTable(k_p=2, entries={"a": (("b", 0.1), ("c", 0.9))})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, tmp_path, bad):
        # NaN compares false both ways, so it would hide the unsorted 0.5, 0.9
        plist = (("b", 0.5), ("c", bad), ("d", 0.9))
        with pytest.raises(CorpusError, match=re.escape("proxy list of 'a' holds a non-finite score")):
            ProxyTable(k_p=3, entries={"a": plist})
        path = tmp_path / "p.tsv"
        rows = "".join(f"a\t{rank}\t{p}\t{v!r}\n" for rank, (p, v) in enumerate(plist, 1))
        path.write_text("# k_p=3\n" + rows)
        with pytest.raises(CorpusError, match=re.escape(f"{path}: proxy list of 'a' holds a non-finite")):
            load_proxies(path)

    @pytest.mark.parametrize(
        "set_id", ["a\tb", "a\nb", "a\rb", "a\x85b", "a\udcff"], ids=["tab", "lf", "cr", "nel", "non-utf8"]
    )
    @pytest.mark.parametrize("side", ["set", "proxy"])
    def test_id_that_splits_a_row_rejected_before_the_write(self, tmp_path, set_id, side):
        entries = {set_id: (("p", 0.9),)} if side == "set" else {"s": ((set_id, 0.9),)}
        with pytest.raises(CorpusError, match=re.escape(f"set {set_id!r}: has a tab or line break")):
            save_proxies(ProxyTable(k_p=1, entries=entries), tmp_path / "p.tsv")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "k_p, plist, message",
        [
            (2, (("b", 0.9), ("b", 0.9)), "repeats a proxy"),
            (1, (("b", 0.9), ("c", 0.8)), "longer than k_p=1"),
        ],
    )
    def test_invalid_proxy_list_rejected(self, k_p, plist, message):
        with pytest.raises(CorpusError, match=re.escape(f"proxy list of 'a' {message}")):
            ProxyTable(k_p=k_p, entries={"a": plist})

    @pytest.mark.parametrize("k_p", [True, 1.0, -1])
    def test_k_p_must_be_an_integer_at_least_zero(self, k_p):
        # a table with k_p=True would be saved as '# k_p=True', which
        # load_proxies rejects
        with pytest.raises(CorpusError, match=re.escape(f"k_p must be an integer >= 0 (got {k_p!r})")):
            ProxyTable(k_p=k_p, entries={"a": (("b", 0.9),)})

    def test_numpy_integer_k_p_round_trips(self, tmp_path):
        t = ProxyTable(k_p=np.int64(1), entries={"a": (("b", 0.9),)})
        save_proxies(t, tmp_path / "p.tsv")
        assert load_proxies(tmp_path / "p.tsv") == t

    def test_repeated_proxy_in_file_rejected(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("# k_p=2\na\t1\tb\t0.9\na\t2\tb\t0.9\n")
        with pytest.raises(CorpusError, match=re.escape(f"{path}: proxy list of 'a' repeats a proxy")):
            load_proxies(path)

    def test_round_trip(self, tmp_path):
        t = ProxyTable(
            k_p=2,
            entries={"a": (("b", 0.9), ("c", 0.5)), "b": (("a", 0.9), ("c", 0.25))},
        )
        save_proxies(t, tmp_path / "p.tsv")
        assert load_proxies(tmp_path / "p.tsv") == t

    def test_other_comment_lines_are_not_headers(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("# built with k_p=5 earlier\n# k_p=1\n# k_p is the width\na\t1\tb\t0.9\n")
        assert load_proxies(path) == ProxyTable(k_p=1, entries={"a": (("b", 0.9),)})

    def test_round_trip_k0(self, tmp_path):
        t = ProxyTable(k_p=0, entries={})
        save_proxies(t, tmp_path / "p.tsv")
        assert load_proxies(tmp_path / "p.tsv") == t

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("a\t1\tb\t0.9\n", 1, "before the '# k_p=' header"),
            ("", 1, "missing '# k_p=' header"),
            ("# k_p=two\na\t1\tb\t0.9\n", 1, "non-integer k_p 'two'"),
            ("# k_p=-1\n", 1, "k_p must be >= 0"),
            ("# k_p=2\na\t1\tb\t0.9\na\tsecond\tc\t0.5\n", 3, "non-integer rank 'second'"),
            ("# k_p=2\na\t1\tb\thigh\n", 2, "non-numeric score 'high'"),
            ("# k_p=1\na\t1\tb\t0.9\n\na\t2\tc\t0.5\n", 4, "longer than k_p=1"),
            ("# k_p=2\na\t1\tb\t0.9\n# k_p=2\n", 3, "second '# k_p=' header"),
            ("# note\n# k_p=2 k_p=3\na\t1\tb\t0.9\n", 2, "non-integer k_p '2 k_p=3'"),
        ],
    )
    def test_malformed_file_names_file_and_line(self, tmp_path, text, line, message):
        path = tmp_path / "p.tsv"
        path.write_text(text)
        with pytest.raises(CorpusError, match=re.escape(f"{path}:{line}: ") + ".*" + re.escape(message)):
            load_proxies(path)


FEATURE_ROW = "1.0\t0.1\t0.2\t0.3\t0.4\t0.5\tr\tp\n"
set_ids = st.text("abyz019_-.", max_size=6)
feature_rows = st.tuples(
    st.lists(values, min_size=5, max_size=5),
    st.sampled_from([0.0, 1.0]),
    set_ids,
    set_ids,
)


class TestFeatureFile:
    def test_round_trip(self, tmp_path, rng):
        feats = feature_table(
            rng.random((10, 5)),
            np.arange(10) % 2,
            [f"r{i}" for i in range(10)],
            [f"p{i}" for i in range(10)],
        )
        save_features(feats, tmp_path / "f.tsv")
        again = load_features(tmp_path / "f.tsv")
        assert len(again) == 10
        assert np.array_equal(feats.s, again.s) and np.array_equal(feats.label, again.label)
        assert feats.ref.tolist() == again.ref.tolist()
        assert feats.proxy.tolist() == again.proxy.tolist()

    @given(rows=st.lists(feature_rows, max_size=8))
    @example(rows=[(EDGE_VALUES[:5], 1.0, "r", "p"), (EDGE_VALUES[1:], 0.0, "p", "r")])
    def test_round_trip_bit_for_bit(self, tmp_path_factory, rows):
        s, label, ref, proxy = zip(*rows) if rows else ([], [], [], [])
        feats = feature_table(np.array(s).reshape(-1, 5), np.array(label), ref, proxy)
        path = tmp_path_factory.getbasetemp() / "features.tsv"
        save_features(feats, path)
        again = load_features(path)
        assert again.s.tobytes() == feats.s.tobytes()
        assert again.label.tobytes() == feats.label.tobytes()
        assert again.ref.tolist() == list(ref) and again.proxy.tolist() == list(proxy)

    @pytest.mark.parametrize(
        "set_id", ["r\tx", "r\nx", "r\rx", "r\x85x", "r\udcff"], ids=["tab", "lf", "cr", "nel", "non-utf8"]
    )
    @pytest.mark.parametrize("side", ["ref", "proxy"])
    def test_id_that_splits_a_row_rejected_before_the_write(self, tmp_path, set_id, side):
        ids = {"ref": ["r0", "r1"], "proxy": ["p0", "p1"]}
        ids[side][1] = set_id
        feats = feature_table(np.full((2, 5), 0.5), np.array([1.0, 0.0]), ids["ref"], ids["proxy"])
        with pytest.raises(CorpusError, match=re.escape(f"set {set_id!r}: has a tab or line break")):
            save_features(feats, tmp_path / "f.tsv")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "row, message",
        [
            ("\t0.1\t0.2\t0.3\t0.4\t0.5\tr\tp\n", "label must be 1 or 0, got ''"),
            ("7.0\t0.1\t0.2\t0.3\t0.4\t0.5\tr\tp\n", "label must be 1 or 0, got '7.0'"),
            ("yes\t0.1\t0.2\t0.3\t0.4\t0.5\tr\tp\n", "label must be 1 or 0, got 'yes'"),
            ("nan\t0.1\t0.2\t0.3\t0.4\t0.5\tr\tp\n", "label must be 1 or 0, got 'nan'"),
            ("0.0\t0.1\tabc\t0.3\t0.4\t0.5\tr\tp\n", "non-numeric value 'abc'"),
            ("0.0\t0.1\t0.2\tnan\t0.4\t0.5\tr\tp\n", "non-finite value"),
            ("0.0\t0.1\t0.2\t0.3\t-inf\t0.5\tr\tp\n", "non-finite value"),
            ("0.0\t0.1\t0.2\t0.3\t0.4\tr\tp\n", "expected 8 tab-separated columns"),
        ],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "f.tsv"
        path.write_text(FEATURE_ROW + row)
        with pytest.raises(CorpusError, match=re.escape(f"{path}:2: {message}")):
            load_features(path)


class TestModelFile:
    def _model(self, rng, n_sv=6):
        beta = rng.normal(size=n_sv)
        beta -= beta.mean()
        return SvrModel(
            support_vectors=rng.random((n_sv, 5)),
            coefficients=beta,
            bias=0.42,
            config=SvrConfig(),
        )

    def test_round_trip_identical_predictions(self, rng, tmp_path):
        m = self._model(rng)
        save_model(m, tmp_path / "m.qts")
        again = load_model(tmp_path / "m.qts")
        assert again == m
        x = rng.random((100, 5))
        np.testing.assert_array_equal(predict(m, x), predict(again, x))

    def test_coefficient_sum_violation_rejected(self, tmp_path):
        (tmp_path / "bad.qts").write_text(
            "gamma=0.2\nepsilon=0.4\ncost=1000.0\nbias=0.1\n"
            "0.5, 0.1, 0.1, 0.1, 0.1, 0.1\n"
        )
        with pytest.raises(CorpusError, match="sum to zero"):
            load_model(tmp_path / "bad.qts")

    @pytest.mark.parametrize(
        "header, body",
        [
            ("gamma=0.2\nepsilon=0.4\ncost=1000.0\nbias=nan\n", ""),
            ("gamma=inf\nepsilon=0.4\ncost=1000.0\nbias=0.1\n", ""),
            ("gamma=nan\nepsilon=0.4\ncost=1000.0\nbias=0.1\n", ""),
            ("gamma=0.2\nepsilon=nan\ncost=1000.0\nbias=0.1\n", ""),
            ("gamma=0.2\nepsilon=0.4\ncost=inf\nbias=0.1\n", ""),
            (
                "gamma=0.2\nepsilon=0.4\ncost=1000.0\nbias=0.1\n",
                "0.5, nan, 0.1, 0.1, 0.1, 0.1\n-0.5, 0.2, 0.2, 0.2, 0.2, 0.2\n",
            ),
            (
                "gamma=0.2\nepsilon=0.4\ncost=1000.0\nbias=0.1\n",
                "nan, 0.1, 0.1, 0.1, 0.1, 0.1\n-0.5, 0.2, 0.2, 0.2, 0.2, 0.2\n",
            ),
        ],
        ids=["bias-nan", "gamma-inf", "gamma-nan", "epsilon-nan", "cost-inf", "vector-nan", "beta-nan"],
    )
    def test_non_finite_parameters_rejected(self, tmp_path, header, body):
        path = tmp_path / "bad.qts"
        path.write_text(header + body)
        with pytest.raises(CorpusError, match=re.escape(str(path))):
            load_model(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("gamma=0.2\nepsilon=wide\ncost=1000.0\nbias=0.1\n", 2),
            ("gamma=0.2\nepsilon=0.4\n\ncost=1000.0\nbias=\n", 5),
            (
                "gamma=0.2\nepsilon=0.4\ncost=1000.0\nbias=0.1\n"
                "0.5, 0.1, 0.1, 0.1, 0.1, 0.1\n-0.5, 0.2, 0.2, 0.2, 0.2\n",
                6,
            ),
            (
                "gamma=0.2\nepsilon=0.4\ncost=1000.0\nbias=0.1\n\n"
                "0.5, 0.1, 0.1, 0.1, 0.1, 0.1\n-0.5, 0.2, 0.2, x, 0.2, 0.2\n",
                7,
            ),
        ],
        ids=["header-value", "header-empty", "vector-width", "vector-value"],
    )
    def test_malformed_line_named(self, tmp_path, text, line):
        path = tmp_path / "bad.qts"
        path.write_text(text)
        with pytest.raises(CorpusError, match=re.escape(f"{path}:{line}:")):
            load_model(path)

    def test_empty_support_set_is_constant_predictor(self, tmp_path):
        (tmp_path / "c.qts").write_text("gamma=0.2\nepsilon=0.4\ncost=1000.0\nbias=0.7\n")
        m = load_model(tmp_path / "c.qts")
        assert m.n_support == 0
        assert predict(m, np.zeros(5)) == 0.7
        assert predict(m, np.full(5, 9.0)) == 0.7


class TestByteOrderMark:
    """A UTF-8 byte-order mark, which Windows editors and spreadsheets write,
    is dropped from the start of every text file kind."""

    def _write_all(self, rng, root):
        g = Gallery(
            sets=tuple(FaceSet(sid, rng.normal(size=(2, 5))) for sid in "ab"),
            labels={"a": "p", "b": "q"},
        )
        table = ProxyTable(k_p=1, entries={"a": (("b", 0.5),)})
        feats = feature_table(rng.random((2, 5)), np.array([1.0, 0.0]), ["a", "b"], ["b", "a"])
        model = TestModelFile()._model(rng)
        save_csv_gallery(g, root / "gal")
        save_proxies(table, root / "p.tsv")
        save_features(feats, root / "f.tsv")
        save_model(model, root / "m.qts")
        return g, table, feats, model

    @pytest.mark.parametrize(
        "name", ["gal/manifest.tsv", "gal/sets/a.csv", "p.tsv", "f.tsv", "m.qts"],
        ids=["manifest", "set-csv", "proxy-table", "feature-table", "model"],
    )
    def test_leading_mark_dropped(self, rng, tmp_path, name):
        g, table, feats, model = self._write_all(rng, tmp_path)
        path = tmp_path / name
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        again = load_gallery(tmp_path / "gal")
        assert again == g and again.index_of("a") == 0
        assert load_proxies(tmp_path / "p.tsv") == table
        f = load_features(tmp_path / "f.tsv")
        assert f.s.tobytes() == feats.s.tobytes() and f.ref.tolist() == ["a", "b"]
        assert load_model(tmp_path / "m.qts") == model

    def test_only_one_mark_dropped(self, rng, tmp_path):
        self._write_all(rng, tmp_path)
        path = tmp_path / "gal/sets/a.csv"
        path.write_bytes(2 * codecs.BOM_UTF8 + path.read_bytes())
        message = re.escape(f"{path}:1: ") + ".*" + re.escape("float: '\\ufeff")
        with pytest.raises(CorpusError, match=message):
            load_gallery(tmp_path / "gal")

    def test_non_utf8_byte_after_a_mark_names_its_line(self, rng, tmp_path):
        self._write_all(rng, tmp_path)
        path = tmp_path / "p.tsv"
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes() + b"\xff\n")
        with pytest.raises(CorpusError, match=re.escape(f"{path}:3: not UTF-8 text")):
            load_proxies(path)
