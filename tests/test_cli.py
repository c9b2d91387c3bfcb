import contextlib
import hashlib
import socket
import threading
from pathlib import Path

import pytest
from test_cas import serving

from viskey import classify, vcs
from viskey.bitimage import downsample_majority, read_pbm, write_pbm
from viskey.cli import run_cli
from viskey.font import render_variant


def run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def glyph_file(tmp_path, label):
    """One 32x32 built-in glyph of font f0 as a P1 file."""
    path = tmp_path / f"{label}_f0.pbm"
    path.write_bytes(write_pbm(render_variant(label, "f0"), "P1"))
    return path


def _stack(capsys, tmp_path, n):
    """Render K7, split it into n shares and stack the first two; returns
    the key image, the stack and the first share's sidecar."""
    key_pbm = tmp_path / "key.pbm"
    run(capsys, "render", "K7", "--out", str(key_pbm))
    prefix = str(tmp_path / f"sh{n}")
    run(capsys, "encode", str(key_pbm), "--scheme", str(n), "--seed", "3",
        "--out-prefix", prefix)
    merged = tmp_path / f"merged{n}.pbm"
    run(capsys, "reconstruct", prefix + "_1.pbm", prefix + "_2.pbm", "--out", str(merged))
    return key_pbm, merged, prefix + "_1.txt"


class TestKeygen:
    def test_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "keygen", "--length", "8", "--seed", "5")
        code2, out2, _ = run(capsys, "keygen", "--length", "8", "--seed", "5")
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.strip()) == 8


class TestPipelineStages:
    def test_render_encode_reconstruct_decode(self, capsys, tmp_path, model):
        key_pbm = tmp_path / "key.pbm"
        code, _, _ = run(capsys, "render", "4V", "--out", str(key_pbm))
        assert code == 0
        img = read_pbm(key_pbm.read_bytes())
        assert (img.width, img.height) == (72, 36)

        prefix = str(tmp_path / "sh")
        code, out, _ = run(capsys, "encode", str(key_pbm), "--scheme", "2",
                           "--seed", "7", "--out-prefix", prefix)
        assert code == 0
        assert Path(prefix + "_1.pbm").exists() and Path(prefix + "_2.txt").exists()
        params, sw, sh, idx, gid = vcs.parse_sidecar(Path(prefix + "_1.txt").read_text())
        assert (params.n, sw, sh, idx) == (2, 72, 36, 1)

        merged = tmp_path / "merged.pbm"
        code, _, _ = run(capsys, "reconstruct", prefix + "_1.pbm", prefix + "_2.pbm",
                         "--out", str(merged))
        assert code == 0

        clean = tmp_path / "clean.pbm"
        code, _, _ = run(capsys, "denoise", str(merged), "--sidecar", prefix + "_1.txt",
                         "--out", str(clean))
        assert code == 0

        code, out, _ = run(capsys, "segment", str(clean))
        assert code == 0 and len(out.strip().splitlines()) == 2

        model_path = tmp_path / "model.txt"
        classify.save_model(model, model_path)
        code, out, _ = run(capsys, "decode", str(merged), "--model", str(model_path),
                           "--scheme", "2")
        assert code == 0 and out.strip() == "4V"

    @pytest.mark.parametrize("n", [2, 9])
    def test_denoise_recovers_key(self, capsys, tmp_path, n):
        key_pbm, merged, sidecar = _stack(capsys, tmp_path, n)
        clean = tmp_path / "clean.pbm"
        code, _, _ = run(capsys, "denoise", str(merged), "--sidecar", sidecar, "--out", str(clean))
        assert code == 0
        p = vcs.scheme_params(n)
        recovered = downsample_majority(read_pbm(clean.read_bytes()), p.block_h, p.block_w)
        assert recovered == read_pbm(key_pbm.read_bytes())

    def test_train_and_classify(self, capsys, tmp_path, model):
        model_path = tmp_path / "model.txt"
        classify.save_model(model, model_path)
        glyph = glyph_file(tmp_path, "Q")
        code, out, _ = run(capsys, "classify", str(glyph), "--model", str(model_path))
        assert code == 0
        assert out.split()[0] == "Q"

    def test_train_forms_write_one_model(self, capsys, tmp_path):
        forms = (["--scheme", "9", "--seed", "100"], ["--scheme", "2", "--seed", "31"], [])
        written = []
        for k, flags in enumerate(forms):
            path = tmp_path / f"model{k}.txt"
            code, _, _ = run(capsys, "train", *flags, "--out", str(path))
            assert code == 0, flags
            written.append(path.read_bytes())
        assert written[0] == written[1] == written[2]

    def test_features_output(self, capsys, tmp_path):
        code, out, _ = run(capsys, "features", str(glyph_file(tmp_path, "A")))
        assert code == 0
        assert len(out.strip().split(",")) == 48


class TestExitCodes:
    @pytest.mark.parametrize("argv", [["features"], ["classify", "--model", "model.txt"]],
                             ids=["features", "classify"])
    def test_two_glyph_image(self, capsys, tmp_path, model, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        classify.save_model(model, "model.txt")
        run(capsys, "render", "AB", "--out", "ab.pbm")
        code, out, err = run(capsys, argv[0], "ab.pbm", *argv[1:])
        assert (code, out, err) == (1, "", "error: expected 1 glyph, found 2\n")

    def test_domain_error(self, capsys, tmp_path):
        key = tmp_path / "k.pbm"
        run(capsys, "render", "A", "--out", str(key))
        code, _, err = run(capsys, "encode", str(key), "--scheme", "7",
                           "--seed", "1", "--out-prefix", str(tmp_path / "s"))
        assert code == 1
        assert "9" in err

    def test_scheme_over_limit(self, capsys, tmp_path):
        key = tmp_path / "k.pbm"
        run(capsys, "render", "A", "--out", str(key))
        code, _, err = run(capsys, "encode", str(key), "--scheme", "42",
                           "--seed", "1", "--out-prefix", str(tmp_path / "s"))
        assert code == 1
        assert err.startswith("error: ")
        assert not list(tmp_path.glob("s_*"))

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "encode", "--no-such-flag")
        assert code == 2

    def test_short_model_line(self, capsys, tmp_path):
        model_path = tmp_path / "model.txt"
        model_path.write_text("viskey-model 48 1\nA\n")
        code, _, err = run(capsys, "classify", str(glyph_file(tmp_path, "A")),
                           "--model", str(model_path))
        assert code == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("flags", [["--white-cutoff", "0.05"], ["--black-cutoff", "0.9"],
                                       ["--max-window", "3"], None])
    def test_denoise_removed_flags_and_missing_sidecar(self, capsys, tmp_path, flags):
        _, merged, sidecar = _stack(capsys, tmp_path, 2)
        sidecar_args = [] if flags is None else ["--sidecar", sidecar, *flags]
        code, _, _ = run(capsys, "denoise", str(merged), *sidecar_args,
                         "--out", str(tmp_path / "clean.pbm"))
        assert code == 2

    @pytest.mark.parametrize("stack_n,sidecar_n", [(2, 9), (9, 21)])
    def test_denoise_wrong_scheme_sidecar(self, capsys, tmp_path, stack_n, sidecar_n):
        # a 2-of-2 stack of K7 tiles into 2x3 blocks too; the sidecar's share
        # size still tells the schemes apart
        _, merged, _ = _stack(capsys, tmp_path, stack_n)
        _, _, sidecar = _stack(capsys, tmp_path, sidecar_n)
        clean = tmp_path / "clean.pbm"
        code, _, err = run(capsys, "denoise", str(merged), "--sidecar", sidecar, "--out", str(clean))
        assert code == 1
        assert err.startswith("error: ")
        assert not clean.exists()

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "segment", "/nonexistent/file.pbm")
        assert code == 1

    def test_render_unknown_character(self, capsys, tmp_path):
        key = tmp_path / "k.pbm"
        code, _, err = run(capsys, "render", "4v", "--out", str(key))
        assert code == 1
        assert err.startswith("error: ")
        assert not key.exists()

    @pytest.mark.parametrize("argv", [
        ["render", "4V", "--out", "k.pbm"],
        ["train", "--out", "m.txt"],
        ["serve", "--port", "1", "--state", "st", "--model", "m.txt"],
        ["demo", "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_corpus_flag_removed(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, *argv, "--corpus", "glyphs")
        assert code == 2
        assert list(tmp_path.iterdir()) == []


class TestDemo:
    def test_demo_n2(self, capsys):
        code, out, _ = run(capsys, "demo", "--n", "2", "--seed", "1")
        assert code == 0
        assert "key: " in out
        assert "AUTH: GRANTED" in out

    def test_demo_deterministic(self, capsys):
        _, out1, _ = run(capsys, "demo", "--n", "2", "--seed", "3")
        _, out2, _ = run(capsys, "demo", "--n", "2", "--seed", "3")
        assert hashlib.sha256(out1.encode()).hexdigest() == hashlib.sha256(out2.encode()).hexdigest()


@contextlib.contextmanager
def dropping_server(reply):
    """A port on which one connection is accepted; its first request line is
    read, answered with the raw bytes `reply`, and the connection closed."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as rfile:
            rfile.readline()
            conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1]
    finally:
        thread.join(timeout=5)
        listener.close()


class TestServiceClient:
    def test_readme_service_example(self, capsys, tmp_path, model, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with serving(tmp_path / "state", model) as srv:
            port = str(srv.server_address[1])

            def viskey(command, *argv):
                code, out, err = run(capsys, command, "--port", port, *argv)
                assert (code, err) == (0, ""), (command, argv)
                return out

            assert viskey("create", "grp", "2", "6", "42") == "OK grp 2\n"
            for m in ("1", "2"):
                reply = viskey("fetch", "grp", m, "--out", f"s{m}.pbm").split()
                assert reply[:3] == ["SHARE", "grp", m]
                assert Path(f"s{m}.pbm").stat().st_size == int(reply[3])
            assert viskey("submit", "grp", "1", "s1.pbm") == "ACCEPTED 1\n"
            assert viskey("submit", "grp", "2", "s2.pbm") == "ACCEPTED 2\n"
            assert viskey("auth", "grp") == "GRANTED grp\n"

    @pytest.mark.parametrize("argv,reply", [
        (["auth", "grp"], b""),
        (["fetch", "grp", "1", "--out", "s1.pbm"], b""),
        (["fetch", "grp", "1", "--out", "s1.pbm"], b"SHARE grp 1 100\n" + bytes(10)),
    ], ids=["auth", "fetch", "fetch-short-payload"])
    def test_dropped_connection(self, capsys, tmp_path, monkeypatch, argv, reply):
        monkeypatch.chdir(tmp_path)
        with dropping_server(reply) as port:
            code, out, err = run(capsys, argv[0], "--port", str(port), *argv[1:])
        assert (code, out) == (1, "")
        assert err.startswith("error: the server closed the connection")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,reply", [
        (["create", "h", "5", "4", "1"], "ERR badscheme"),
        (["fetch", "nope", "1", "--out", "s1.pbm"], "ERR unknowngroup"),
        (["submit", "grp", "1", "bad.pbm"], "ERR badpbm"),
        (["auth", "nope"], "ERR unknowngroup"),
        (["auth", "grp"], "DENIED grp InsufficientShares"),
    ], ids=["create-ERR", "fetch-ERR", "submit-ERR", "auth-ERR", "auth-DENIED"])
    def test_refusal_exits_1(self, capsys, tmp_path, model, monkeypatch, argv, reply):
        """The reply is printed as it is, and a refusal exits 1."""
        monkeypatch.chdir(tmp_path)
        Path("bad.pbm").write_bytes(b"not a pbm")
        with serving(tmp_path / "state", model) as srv:
            port = str(srv.server_address[1])
            assert run(capsys, "create", "--port", port, "grp", "2", "4", "1")[0] == 0
            code, out, err = run(capsys, argv[0], "--port", port, *argv[1:])
        assert (code, err) == (1, "")
        assert out.startswith(reply)
        assert not Path("s1.pbm").exists()
