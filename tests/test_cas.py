import threading
from collections import Counter

import numpy as np
import pytest

from viskey import cas, denoise, vcs
from viskey.bitimage import BitImage, read_pbm, write_pbm
from viskey.ocr import segment


class TestGenerateKey:
    def test_deterministic(self):
        assert cas.generate_key(8, 5) == cas.generate_key(8, 5)

    def test_alphabet(self):
        key = cas.generate_key(200, 1)
        assert set(key) <= set(cas.ALPHABET)
        assert len(key) == 200

    def test_length_validation(self):
        with pytest.raises(ValueError):
            cas.generate_key(0, 1)

    def test_uniformity(self):
        counts = Counter(cas.generate_key(1, seed) for seed in range(10_000))
        for ch in cas.ALPHABET:
            assert abs(counts[ch] / 10_000 - 1 / 36) < 0.01


class TestRenderKeyImage:
    def test_layout_arithmetic(self):
        img = cas.render_key_image("AB", "f0", spacing=4)
        assert (img.width, img.height) == (72, 36)

    def test_segments_per_glyph(self):
        img = cas.render_key_image("A7K", "f0")
        assert len(segment(img)) == 3

    def test_missing_glyph(self):
        for key, font_id in (("A", "nosuchfont"), ("a", "f0"), ("4v", "f0")):
            with pytest.raises(ValueError):
                cas.render_key_image(key, font_id)

    def test_empty_key(self):
        with pytest.raises(ValueError):
            cas.render_key_image("")

    def test_spacing_too_small(self):
        with pytest.raises(ValueError):
            cas.render_key_image("AB", spacing=1)


class TestCreateGroup:
    def test_n2(self):
        rec = cas.create_group("g", 2, 4, 1)
        assert len(rec.shares) == 2
        assert len(rec.key) == 4
        # every 1x2 share block has exactly one black subpixel
        for sh in rec.shares:
            pairs = sh.a.reshape(sh.height, -1, 2).sum(axis=2)
            assert np.all(pairs == 1)

    def test_n9_expansion(self):
        rec = cas.create_group("g", 9, 3, 2)
        assert len(rec.shares) == 9
        assert rec.shares[0].height == rec.secret_h * 2
        assert rec.shares[0].width == rec.secret_w * 3

    def test_distinct_keys(self):
        a = cas.create_group("g", 2, 6, 10)
        b = cas.create_group("g", 2, 6, 11)
        assert a.key != b.key

    def test_inadmissible_n(self):
        with pytest.raises(ValueError):
            cas.create_group("g", 5, 6, 1)


class TestAuthenticate:
    def test_granted(self, model):
        rec = cas.create_group("g", 2, 4, 30)
        rec.submissions = {1: rec.shares[0], 2: rec.shares[1]}
        d = cas.authenticate(rec, model)
        assert d.outcome == cas.GRANTED and d.reason == ""
        assert rec.status == cas.GRANTED

    def test_three_shares_granted_without_window_pass(self, model, monkeypatch):
        def no_window(*args):
            raise AssertionError("window pass ran")

        monkeypatch.setattr(denoise, "_window_counts", no_window)
        rec = cas.create_group("g", 9, 5, 35)
        rec.submissions = {i: rec.shares[i - 1] for i in (1, 2, 3)}
        d = cas.authenticate(rec, model)
        assert d.outcome == cas.GRANTED and d.reason == ""

    def test_insufficient(self, model):
        rec = cas.create_group("g", 2, 4, 31)
        rec.submissions = {1: rec.shares[0]}
        d = cas.authenticate(rec, model)
        assert (d.outcome, d.reason) == (cas.DENIED, cas.INSUFFICIENT_SHARES)

    def test_dimension_mismatch(self, model):
        rec = cas.create_group("g", 2, 4, 32)
        rec.submissions = {1: rec.shares[0], 2: BitImage.blank(8, 8)}
        d = cas.authenticate(rec, model)
        assert (d.outcome, d.reason) == (cas.DENIED, cas.DIMENSION_MISMATCH)

    def test_cross_group_mismatch(self, model):
        a = cas.create_group("a", 2, 4, 33)
        b = cas.create_group("b", 2, 4, 34)
        a.submissions = {1: a.shares[0], 2: b.shares[1]}
        d = cas.authenticate(a, model)
        assert (d.outcome, d.reason) == (cas.DENIED, cas.KEY_MISMATCH)
        assert d.decoded != a.key


class TestRecordPersistence:
    def test_roundtrip(self, tmp_path):
        rec = cas.create_group("grp", 9, 4, 40)
        rec.issued = [1, 3]
        rec.submissions = {1: rec.shares[0], 3: rec.shares[2]}
        rec.status = cas.PENDING
        cas.save_record(rec, tmp_path)
        for member in rec.submissions:
            cas.save_submission(rec, member, tmp_path)
        loaded = cas.load_record("grp", tmp_path)
        assert loaded.key == rec.key
        assert loaded.params == rec.params
        assert loaded.shares == rec.shares
        assert loaded.issued == [1, 3]
        assert set(loaded.submissions) == {1, 3}
        assert loaded.submissions[1] == rec.shares[0]
        assert (loaded.secret_w, loaded.secret_h) == (rec.secret_w, rec.secret_h)


@pytest.fixture()
def server(tmp_path, model):
    state = cas.CasState(tmp_path / "state", model)
    srv = cas.CasServer(("127.0.0.1", 0), state)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def pbm_payload(payload):
    """Split a FETCH payload (P4 raster followed by a sidecar line) and
    return just the canonical PBM bytes."""
    return write_pbm(read_pbm(payload), "P4")


class TestProtocol:
    def test_full_session(self, server):
        port = server.server_address[1]
        c = cas.CasClient("127.0.0.1", port)
        try:
            assert c.create("g1", 2, 4, 77) == "OK g1 2"
            assert c.create("g1", 2, 4, 77).startswith("ERR exists")

            r1, p1 = c.fetch("g1", 1)
            r2, p2 = c.fetch("g1", 2)
            assert r1.startswith("SHARE g1 1 ") and r2.startswith("SHARE g1 2 ")
            sidecar = p1[p1.rindex(b"2of2") :].decode()
            params, _, _, idx, gid = vcs.parse_sidecar(sidecar)
            assert (params.n, idx, gid) == (2, 1, "g1")

            assert c.fetch("g1", 3)[0].startswith("ERR unknownmember")
            assert c.fetch("nope", 1)[0].startswith("ERR unknowngroup")

            assert c.auth("g1") == "DENIED g1 InsufficientShares"
            assert c.submit("g1", 1, pbm_payload(p1)) == "ACCEPTED 1"
            assert c.submit("g1", 2, pbm_payload(p2)) == "ACCEPTED 2"
            assert c.auth("g1") == "GRANTED g1"

            assert c.reset("g1") == "OK"
            assert c.auth("g1") == "DENIED g1 InsufficientShares"

            assert c.submit("g1", 1, b"garbage").startswith("ERR badpbm")
            assert c._request("BOGUS x").startswith("ERR unknown")
        finally:
            c.close()

    def test_auth_writes_no_pbm(self, server, monkeypatch):
        """SUBMIT writes its own submission file; AUTH changes only the status."""
        written = []
        write_pbm_unpatched = cas.write_pbm

        def counting_write_pbm(img, variant):
            written.append(variant)
            return write_pbm_unpatched(img, variant)

        c = cas.CasClient("127.0.0.1", server.server_address[1])
        try:
            c.create("g", 2, 4, 66)
            _, p1 = c.fetch("g", 1)
            _, p2 = c.fetch("g", 2)
            monkeypatch.setattr(cas, "write_pbm", counting_write_pbm)
            assert c.submit("g", 1, pbm_payload(p1)) == "ACCEPTED 1"
            assert c.submit("g", 2, pbm_payload(p2)) == "ACCEPTED 2"
            assert len(written) == 2
            assert c.auth("g") == "GRANTED g"
            assert len(written) == 2
        finally:
            c.close()

    def test_state_survives_restart(self, tmp_path, model):
        state_dir = tmp_path / "state"
        state = cas.CasState(state_dir, model)
        srv = cas.CasServer(("127.0.0.1", 0), state)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        port = srv.server_address[1]
        c = cas.CasClient("127.0.0.1", port)
        c.create("g", 2, 4, 88)
        _, p1 = c.fetch("g", 1)
        _, p2 = c.fetch("g", 2)
        c.submit("g", 1, pbm_payload(p1))
        c.submit("g", 2, pbm_payload(p2))
        c.close()
        srv.shutdown()
        srv.server_close()

        # fresh process state from disk: submissions and shares intact
        state2 = cas.CasState(state_dir, model)
        srv2 = cas.CasServer(("127.0.0.1", 0), state2)
        thread2 = threading.Thread(target=srv2.serve_forever, daemon=True)
        thread2.start()
        c2 = cas.CasClient("127.0.0.1", srv2.server_address[1])
        try:
            _, p1b = c2.fetch("g", 1)
            assert pbm_payload(p1b) == pbm_payload(p1)
            assert c2.auth("g") == "GRANTED g"
        finally:
            c2.close()
            srv2.shutdown()
            srv2.server_close()


class TestProtocolInput:
    def test_bad_integer_keeps_connection(self, server):
        c = cas.CasClient("127.0.0.1", server.server_address[1])
        try:
            assert c._request("CREATE g x 6 1").startswith("ERR usage")
            assert c._request("FETCH g one").startswith("ERR usage")
            assert c._request("SUBMIT g 1 -5").startswith("ERR usage")
            assert c.create("g", 2, 4, 1) == "OK g 2"
            assert c.fetch("g", 1)[0].startswith("SHARE g 1 ")
        finally:
            c.close()

    def test_non_utf8_line_keeps_connection(self, server):
        c = cas.CasClient("127.0.0.1", server.server_address[1])
        try:
            c.sock.sendall(b"AUTH \xff\xfe\n")
            assert c.rfile.readline().startswith(b"ERR usage")
            assert c.create("g", 2, 4, 1) == "OK g 2"
        finally:
            c.close()

    def test_group_id_stays_inside_state_dir(self, server, tmp_path):
        c = cas.CasClient("127.0.0.1", server.server_address[1])
        try:
            for gid in ("../escaped", "a/b", "..", "x" * 65):
                assert c.create(gid, 2, 4, 1).startswith("ERR usage"), gid
            assert c.fetch("../escaped", 1)[0].startswith("ERR usage")
            assert c.auth("../escaped").startswith("ERR usage")
            assert c.reset("../escaped").startswith("ERR usage")
            # the rejected SUBMIT's payload is consumed, so the next request parses
            assert c.submit("../escaped", 1, b"P4\n1 1\n\x00").startswith("ERR usage")
            assert c.create("x" * 64, 2, 4, 1) == f"OK {'x' * 64} 2"
        finally:
            c.close()
        assert [p.name for p in tmp_path.iterdir()] == ["state"]
        assert [p.name for p in (tmp_path / "state").iterdir()] == ["x" * 64]
