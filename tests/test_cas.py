import contextlib
import dataclasses
import hashlib
import itertools
import logging
import socket
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, precondition, rule,
                                 run_state_machine_as_test)

from conftest import blank
from viskey import cas, denoise, vcs
from viskey.bitimage import read_pbm, write_pbm
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
        for sh in map(read_pbm, rec.shares):
            pairs = sh.a.reshape(sh.height, -1, 2).sum(axis=2)
            assert np.all(pairs == 1)

    def test_n9_expansion(self):
        rec = cas.create_group("g", 9, 3, 2)
        secret = cas.render_key_image(rec.key)
        assert len(rec.shares) == 9
        assert rec.shape == (secret.height * 2, secret.width * 3)

    def test_distinct_keys(self):
        a = cas.create_group("g", 2, 6, 10)
        b = cas.create_group("g", 2, 6, 11)
        assert a.key != b.key

    def test_inadmissible_n(self):
        with pytest.raises(ValueError):
            cas.create_group("g", 5, 6, 1)

    def test_limits(self):
        t0 = time.monotonic()
        for n, key_length in ((vcs.MAX_SHARES + 3, 6), (42, 6), (9, cas.MAX_KEY_LENGTH + 1)):
            with pytest.raises(ValueError):
                cas.create_group("g", n, key_length, 1)
        assert time.monotonic() - t0 < 1.0
        assert len(cas.create_group("g", 9, cas.MAX_KEY_LENGTH, 1).key) == cas.MAX_KEY_LENGTH

    def test_payload_bound_is_largest_share(self):
        """The bound is the largest FETCH payload: the largest share's P4
        file and the longest sidecar line, so a fetched file submits as is."""
        p = vcs.scheme_params(vcs.MAX_SHARES)
        secret = cas.render_key_image("W" * cas.MAX_KEY_LENGTH)
        share = blank(secret.width * p.block_w, secret.height * p.block_h)
        assert (share.width, share.height) == (6336, 360)
        line = vcs.share_sidecar(p, (share.height, share.width), p.n, "x" * 64)
        p4 = len(write_pbm(share, "P4"))
        assert (p4, len(line)) == (285_132, 96)
        assert p4 + len(line) == cas.MAX_PAYLOAD == 285_228


class TestAuthenticate:
    def test_granted(self, model):
        rec = cas.create_group("g", 2, 4, 30)
        rec.submissions = {1: rec.shares[0], 2: rec.shares[1]}
        before = dataclasses.replace(rec, submissions=dict(rec.submissions))
        d = cas.authenticate(rec, model)
        assert d.outcome == cas.GRANTED and d.reason == ""
        assert rec == before

    def test_three_shares_granted_without_window_pass(self, model, monkeypatch):
        def no_window(*args):
            raise AssertionError("window pass ran")

        monkeypatch.setattr(denoise, "_window_filter", no_window)
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
        rec.submissions = {1: rec.shares[0], 2: write_pbm(blank(8, 8), "P4")}
        d = cas.authenticate(rec, model)
        assert (d.outcome, d.reason) == (cas.DENIED, cas.DIMENSION_MISMATCH)

    def test_cross_group_mismatch(self, model):
        a = cas.create_group("a", 2, 4, 33)
        b = cas.create_group("b", 2, 4, 34)
        a.submissions = {1: a.shares[0], 2: b.shares[1]}
        d = cas.authenticate(a, model)
        assert (d.outcome, d.reason) == (cas.DENIED, cas.KEY_MISMATCH)
        assert d.decoded != a.key

    @pytest.mark.xfail(strict=True, reason="a stack of two groups' shares is noise, and "
                       "noise reads as one glyph: '8' at n = 2, 'B' at n = 9")
    @pytest.mark.parametrize("n, seed", [(2, 117), (9, 6)])  # keys "8" and "B"
    def test_one_character_key_denies_foreign_stack(self, model, n, seed):
        rec = cas.create_group("g", n, 1, seed)
        other = cas.create_group("x", n, 1, seed + 1)
        rec.submissions = {1: rec.shares[0], 2: other.shares[1]}
        assert cas.authenticate(rec, model).outcome == cas.DENIED


@pytest.fixture()
def decodes(monkeypatch):
    """The number of `decode_string` calls `authenticate` makes, so far."""
    calls = []
    decode_string = cas.decode_string

    def counting(*args):
        calls.append(args)
        return decode_string(*args)

    monkeypatch.setattr(cas, "decode_string", counting)
    return lambda: len(calls)


class TestAuthMemo:
    @pytest.mark.parametrize("foreign", [False, True], ids=["granted", "keymismatch"])
    def test_repeat_answers_without_decoding(self, model, decodes, foreign):
        a = cas.create_group("a", 2, 4, 30)
        b = cas.create_group("b", 2, 4, 34)
        a.submissions = {1: a.shares[0], 2: (b if foreign else a).shares[1]}
        first = cas.authenticate(a, model)
        assert first.outcome == (cas.DENIED if foreign else cas.GRANTED)
        assert first.reason == (cas.KEY_MISMATCH if foreign else "")
        assert decodes() == 1
        a.submissions = dict(a.submissions)  # an equal set, as a later SUBMIT saves it
        assert cas.authenticate(a, model) == first
        assert decodes() == 1

    @pytest.mark.parametrize("change", ["reset", "replace"])
    def test_changed_stack_decodes_again(self, tmp_path, model, decodes, change):
        """The same members holding another stack get that stack's decision."""
        a = cas.create_group("a", 2, 4, 30)
        b = cas.create_group("b", 2, 4, 34)
        cas.save_record(a, tmp_path, {1: a.shares[0], 2: a.shares[1]})
        assert cas.authenticate(a, model).outcome == cas.GRANTED
        if change == "reset":
            cas.save_record(a, tmp_path, {})
            cas.save_record(a, tmp_path, {1: a.shares[0]})
        cas.save_record(a, tmp_path, {**a.submissions, 2: b.shares[1]})
        d = cas.authenticate(a, model)
        assert (d.outcome, d.reason) == (cas.DENIED, cas.KEY_MISMATCH)
        assert decodes() == 2

    def test_other_model_decodes_again(self, model, decodes):
        rec = cas.create_group("g", 2, 4, 30)
        rec.submissions = {1: rec.shares[0], 2: rec.shares[1]}
        assert cas.authenticate(rec, model).outcome == cas.GRANTED
        label = next(ch for ch in "0123456789" if ch not in rec.key)
        reads_one_label = dataclasses.replace(
            model, samples=tuple(s for s in model.samples if s.label == label))
        d = cas.authenticate(rec, reads_one_label)
        assert (d.outcome, d.reason, d.decoded) == (cas.DENIED, cas.KEY_MISMATCH,
                                                    label * len(rec.key))
        assert cas.authenticate(rec, model).outcome == cas.GRANTED
        assert decodes() == 3

    def test_every_outcome_remembered(self, model, decodes):
        rec = cas.create_group("g", 2, 4, 31)
        for subs, reason in (({}, cas.INSUFFICIENT_SHARES),
                             ({1: rec.shares[0], 2: write_pbm(blank(8, 8), "P4")},
                              cas.DIMENSION_MISMATCH)):
            rec.submissions = subs
            d = cas.authenticate(rec, model)
            assert rec.last_auth[0] is model and rec.last_auth[1:] == (subs, d)
            assert d.reason == reason
        assert decodes() == 0


class TestRecordPersistence:
    def test_roundtrip(self, tmp_path):
        rec = cas.create_group("grp", 9, 4, 40)
        rec.submissions = {1: rec.shares[0], 3: rec.shares[2]}
        cas.save_record(rec, tmp_path)
        loaded = cas.load_record("grp", tmp_path)
        assert loaded.key == rec.key
        assert loaded.params == rec.params
        assert loaded.shares == rec.shares
        assert set(loaded.submissions) == {1, 3}
        assert loaded.submissions[1] == rec.shares[0]

    def test_later_saves_write_only_the_record(self, tmp_path, monkeypatch):
        rec = cas.create_group("grp", 9, 4, 46)
        cas.save_record(rec, tmp_path)  # CREATE's save writes the shares
        assert sorted(p.name for p in (tmp_path / "grp").iterdir()) == sorted(
            ["record.txt"] + [f"share_{i}.pbm" for i in range(1, 10)])
        calls = []

        def spy(name):
            real = getattr(cas.Path, name)

            def wrapper(path, *args, **kwargs):
                calls.append((name, path.name))
                return real(path, *args, **kwargs)
            return wrapper

        for name in ("exists", "mkdir", "write_bytes"):
            monkeypatch.setattr(cas.Path, name, spy(name))
        cas.save_record(rec, tmp_path, {1: rec.shares[0]})  # a SUBMIT's save
        assert calls == [("write_bytes", "record.1.txt")]
        monkeypatch.undo()
        assert cas.load_record("grp", tmp_path).shares == rec.shares

    @pytest.mark.parametrize("damage", ["swapped-block", "wrong-m", "share-size", "untiled"])
    def test_inconsistent_record_rejected(self, tmp_path, damage):
        rec = cas.create_group("grp", 9, 2, 41)
        cas.save_record(rec, tmp_path)
        gdir = tmp_path / "grp"
        h, w = rec.shape
        record_txt = (gdir / "record.txt").read_text()
        assert "scheme 2ofn 3 9 6 2 3\n" in record_txt
        if damage == "swapped-block":
            record_txt = record_txt.replace("2ofn 3 9 6 2 3", "2ofn 3 9 6 3 2")
        elif damage == "wrong-m":
            record_txt = record_txt.replace("2ofn 3 9 6 2 3", "2ofn 3 9 8 2 4")
        elif damage == "share-size":
            (gdir / "share_2.pbm").write_bytes(write_pbm(blank(w + 3, h), "P4"))
        else:
            for i in range(1, 10):
                (gdir / f"share_{i}.pbm").write_bytes(write_pbm(blank(w + 1, h), "P4"))
        (gdir / "record.txt").write_text(record_txt)
        with pytest.raises(ValueError):
            cas.load_record("grp", tmp_path)

    def test_record_with_secret_line_loads(self, tmp_path, model):
        """A record.txt as earlier versions wrote it, with a `secret` line."""
        rec = cas.create_group("old", 9, 4, 42)
        gdir = tmp_path / "old"
        gdir.mkdir()
        h, w = rec.shape
        (gdir / "record.txt").write_text(
            f"key {rec.key}\nscheme 2ofn 3 9 6 2 3\nsecret {w // 3} {h // 2}\n"
            "issued 2 5\nsubmitted 2 5\nstatus Pending\n")
        for i in range(1, 10):
            (gdir / f"share_{i}.pbm").write_bytes(rec.shares[i - 1])
        for i in (2, 5):
            (gdir / f"submission_{i}.pbm").write_bytes(rec.shares[i - 1])
        loaded = cas.load_record("old", tmp_path)
        assert (loaded.key, loaded.params) == (rec.key, rec.params)
        assert loaded.shares == rec.shares
        assert cas.authenticate(loaded, model) == cas.AuthDecision(cas.GRANTED)
        with serving(tmp_path, model) as srv:
            c = client(srv)
            try:
                for i in (1, 9):
                    assert c.fetch("old", i)[1] == rec.shares[i - 1] + sidecar(rec, i)
            finally:
                c.close()

    def test_record_with_issued_line_loads(self, tmp_path, model):
        """A record as earlier versions wrote it, with an `issued` line, even
        one that lists a member twice: the line is not read."""
        rec = cas.create_group("grp", 9, 4, 50)
        cas.save_record(rec, tmp_path)
        path = tmp_path / "grp" / "record.txt"
        path.write_text(path.read_text().replace("\nversion", "\nissued 1 1\nversion"))
        assert "\nissued 1 1\n" in path.read_text()
        loaded = cas.load_record("grp", tmp_path)
        assert (loaded.key, loaded.params, loaded.shares) == (rec.key, rec.params, rec.shares)
        with serving(tmp_path, model) as srv:
            c = client(srv)
            try:
                for i in range(1, 10):
                    assert c.fetch("grp", i)[1] == rec.shares[i - 1] + sidecar(rec, i)
            finally:
                c.close()

    @pytest.mark.parametrize("newer", ["whole", "torn-after-version"])
    def test_record_with_status_line_loads(self, tmp_path, model, newer):
        """Records as earlier versions wrote them, each ending with a `status`
        line; the newer one, whole or torn just after its `version` line,
        loads as its version."""
        rec = cas.create_group("grp", 9, 4, 51)
        cas.save_record(rec, tmp_path)
        gdir = tmp_path / "grp"
        head = f"key {rec.key}\nscheme 2ofn 3 9 6 2 3\n"
        (gdir / "record.txt").write_text(head + "submitted 1\nversion 2\nstatus Pending\n")
        last = "status Granted\n" if newer == "whole" else ""
        (gdir / "record.1.txt").write_text(head + "submitted 1 2\nversion 3\n" + last)
        for i in (1, 2):
            (gdir / f"submission_{i}.pbm").write_bytes(rec.shares[i - 1])
        loaded = cas.load_record("grp", tmp_path)
        assert (loaded.key, loaded.params, loaded.shares) == (rec.key, rec.params, rec.shares)
        assert (sorted(loaded.submissions), loaded.version) == ([1, 2], 4)
        assert cas.authenticate(loaded, model) == cas.AuthDecision(cas.GRANTED)

    def test_shares_held_packed(self, tmp_path):
        rec = cas.create_group("grp", 21, 6, 47)
        cas.save_record(rec, tmp_path)
        for held in (rec, cas.load_record("grp", tmp_path)):
            assert len(held.shares) == 21 and all(type(s) is bytes for s in held.shares)
            assert sum(map(len, held.shares)) == 21 * 40_836
        assert held.shares == rec.shares and held.shape == (216, 1512)

    @pytest.mark.parametrize("form", ["trailing-bytes", "padding-bits", "P1"])
    def test_noncanonical_share_file_served_canonical(self, tmp_path, model, form):
        rec = cas.create_group("grp", 9, 1, 48)
        h, w = rec.shape
        assert w == 108  # four padding bits at the end of each P4 row
        cas.save_record(rec, tmp_path)
        path = tmp_path / "grp" / "share_2.pbm"
        canonical = path.read_bytes()
        if form == "trailing-bytes":
            data = canonical + b"\n# trailing\n"
        elif form == "padding-bits":
            body_start = len(canonical) - h * ((w + 7) // 8)
            rows = np.frombuffer(canonical[body_start:], dtype=np.uint8).reshape(h, -1).copy()
            rows[:, -1] |= 0x0F
            data = canonical[:body_start] + rows.tobytes()
        else:
            data = write_pbm(read_pbm(rec.shares[1]), "P1")
        assert data != canonical and read_pbm(data) == read_pbm(rec.shares[1])
        path.write_bytes(data)
        assert cas.load_record("grp", tmp_path).shares == rec.shares
        with serving(tmp_path, model) as srv:
            c = client(srv)
            try:
                reply, payload = c.fetch("grp", 2)
            finally:
                c.close()
        assert reply == f"SHARE grp 2 {len(payload)}"
        assert payload == write_pbm(read_pbm(data), "P4") + sidecar(rec, 2)

    def test_truncated_share_file_moved_aside(self, tmp_path, model):
        rec = cas.create_group("grp", 9, 4, 49)
        cas.save_record(rec, tmp_path)
        path = tmp_path / "grp" / "share_3.pbm"
        path.write_bytes(path.read_bytes()[:-5])
        assert cas.CasState(tmp_path, model).get("grp") is None
        assert [p.name.split(".")[:2] for p in tmp_path.iterdir()] == [["grp", "corrupt"]]


def _fail_after(k):
    """A Path.write_bytes that writes only the first k bytes, then fails as a
    process killed mid-write would leave it."""
    def write_bytes(path, data):
        with open(path, "wb") as f:
            f.write(data[:k])
        raise OSError("simulated crash mid-write")
    return write_bytes


class TestCrashConsistency:
    def _saved_group(self, state_dir):
        """Versions 0 (CREATE), 1 (member 1) and 2 (members 1 and 2)."""
        rec = cas.create_group("grp", 9, 4, 43)
        cas.save_record(rec, state_dir)
        cas.save_record(rec, state_dir, {1: rec.shares[0]})
        cas.save_record(rec, state_dir, {1: rec.shares[0], 2: rec.shares[1]})
        return rec

    # each save starts with 31 bytes of key and scheme lines and an 18-byte
    # `submission 1 3898` line: k = 40 tears that line, k = 59 and 1000 the
    # submission's bytes, and k = -1 the newline of the last line, `version 3`
    @pytest.mark.parametrize("k", [0, 1, 40, 59, 1000, -1])
    @pytest.mark.parametrize("write", ["record", "submission"])
    def test_torn_write_keeps_old_record(self, tmp_path, model, monkeypatch, k, write):
        rec = self._saved_group(tmp_path)
        monkeypatch.setattr(cas.Path, "write_bytes", _fail_after(k))
        with pytest.raises(OSError, match="simulated"):
            if write == "record":
                cas.save_record(rec, tmp_path, {i: rec.shares[i - 1] for i in range(1, 6)})
            else:  # a SUBMIT that replaces member 2's submission
                cas.save_record(rec, tmp_path, {**rec.submissions, 2: rec.shares[8]})
        monkeypatch.undo()
        loaded = cas.CasState(tmp_path, model).get("grp")
        assert loaded is not None
        assert (loaded.key, loaded.params) == (rec.key, rec.params)
        assert loaded.submissions == rec.submissions == {1: rec.shares[0], 2: rec.shares[1]}

    @pytest.mark.parametrize("verb", ["SUBMIT", "RESET"])
    def test_failed_save_changes_nothing(self, tmp_path, model, monkeypatch, verb):
        """A SUBMIT or RESET whose save fails answers `ERR internal` and
        leaves the group as it is on disk, before and after a restart."""
        state_dir = tmp_path / "state"
        with serving(state_dir, model) as srv:
            c = client(srv)
            try:
                assert c.create("g", 2, 4, 9) == "OK g 2"
                shares = [pbm_payload(c.fetch("g", m)[1]) for m in (1, 2)]
                for m in (1, 2) if verb == "RESET" else (1,):
                    assert c.submit("g", m, shares[m - 1]) == f"ACCEPTED {m}"
                before = c.auth("g")
                monkeypatch.setattr(cas.Path, "write_bytes", _fail_after(5))
                if verb == "SUBMIT":
                    assert c.submit("g", 2, shares[1]).startswith("ERR internal")
                else:
                    assert c.reset("g").startswith("ERR internal")
            finally:
                c.close()
            monkeypatch.undo()
            for restart in (False, True):
                with serving(state_dir, model) if restart else contextlib.nullcontext(srv) as s:
                    c = client(s)
                    try:
                        assert c.auth("g") == before, restart
                    finally:
                        c.close()

    def test_crash_during_reset_keeps_group(self, tmp_path, model, monkeypatch):
        state_dir = tmp_path / "state"
        with serving(state_dir, model) as srv:
            c = client(srv)
            try:
                assert c.create("g", 2, 4, 7) == "OK g 2"
                shares = {m: pbm_payload(c.fetch("g", m)[1]) for m in (1, 2)}
                for m in (1, 2):
                    assert c.submit("g", m, shares[m]) == f"ACCEPTED {m}"
                monkeypatch.setattr(cas.Path, "write_bytes", _fail_after(40))
                assert c.reset("g").startswith("ERR internal")
            finally:
                c.close()
        monkeypatch.undo()
        loaded = cas.CasState(state_dir, model).get("g")
        assert loaded is not None
        assert loaded.submissions == shares

    def test_reset_removes_torn_submission(self, tmp_path, model, monkeypatch):
        """A torn SUBMIT leaves only the shares and the two record files, and
        the next RESET rewrites the torn one whole."""
        state_dir = tmp_path / "state"
        gdir = state_dir / "g"
        with serving(state_dir, model) as srv:
            c = client(srv)
            try:
                assert c.create("g", 2, 4, 8) == "OK g 2"
                share = pbm_payload(c.fetch("g", 1)[1])
                monkeypatch.setattr(cas.Path, "write_bytes", _fail_after(60))
                assert c.submit("g", 1, share).startswith("ERR internal")
            finally:
                c.close()
            monkeypatch.undo()
            files = ["record.1.txt", "record.txt", "share_1.pbm", "share_2.pbm"]
            assert sorted(p.name for p in gdir.iterdir()) == files
            assert cas._read_whole(gdir / "record.1.txt") is None
            c = client(srv)
            try:
                assert c.reset("g") == "OK"
            finally:
                c.close()
        assert sorted(p.name for p in gdir.iterdir()) == files
        fields, submissions = cas._read_whole(gdir / "record.1.txt")  # whole again
        assert (fields["version"], submissions) == ("1", [])

    def test_torn_record_falls_back_or_fails(self, tmp_path):
        rec = cas.create_group("grp", 2, 1, 44)
        rec.submissions = {1: rec.shares[0], 2: rec.shares[1]}
        cas.save_record(rec, tmp_path)  # version 0, in record.txt
        path = tmp_path / "grp" / "record.txt"
        full = path.read_bytes()
        assert full.endswith(b"\n" + rec.shares[1] + b"version 0\n")
        # the only version: every proper prefix fails to load
        for k in range(len(full)):
            path.write_bytes(full[:k])
            with pytest.raises((KeyError, ValueError)):
                cas.load_record("grp", tmp_path)
        path.write_bytes(full)
        cas.save_record(rec, tmp_path, {2: rec.shares[1]})  # version 1, in record.1.txt
        newer = tmp_path / "grp" / "record.1.txt"
        full = newer.read_bytes()
        assert full.endswith(b"\nsubmission 2 %d\n" % len(rec.shares[1]) + rec.shares[1]
                             + b"version 1\n")
        # with version 1 torn, version 0 loads whole
        for k in range(len(full)):
            newer.write_bytes(full[:k])
            loaded = cas.load_record("grp", tmp_path)
            assert (loaded.submissions, loaded.version) == (
                {1: rec.shares[0], 2: rec.shares[1]}, 1)
        newer.write_bytes(full)
        loaded = cas.load_record("grp", tmp_path)
        assert (loaded.submissions, loaded.version) == ({2: rec.shares[1]}, 2)

    @pytest.mark.parametrize("line,value", [("submitted", "2 10"), ("submitted", "1 1"),
                                            ("submission", "0"), ("submission", "10"),
                                            ("submission", "1 1")])
    def test_bad_status_or_members_rejected(self, tmp_path, line, value):
        """Members out of 1..n or repeated, listed as earlier versions did (no
        submission file is needed to reject them) or inline."""
        rec = cas.create_group("grp", 9, 4, 45)
        cas.save_record(rec, tmp_path)
        path = tmp_path / "grp" / "record.txt"
        if line == "submitted":
            members = f"submitted {value}\n".encode()
        else:
            members = b"".join(b"submission %s %d\n" % (m.encode(), len(rec.shares[0]))
                               + rec.shares[0] for m in value.split())
        path.write_bytes(path.read_bytes().replace(b"version 0", members + b"version 0"))
        with pytest.raises(ValueError):
            cas.load_record("grp", tmp_path)

    def test_status_line_torn_reads_as_torn(self, tmp_path):
        """A version as earlier versions wrote it, torn inside its last line,
        the `status` line, is torn: the older version loads."""
        rec = cas.create_group("grp", 2, 4, 53)
        cas.save_record(rec, tmp_path)
        gdir = tmp_path / "grp"
        head = f"key {rec.key}\nscheme 2of2 0 2 2 1 2\n"
        (gdir / "record.txt").write_text(head + "version 2\nstatus Pending\n")
        (gdir / "record.1.txt").write_text(head + "version 3\nstatus Gra")
        assert cas.load_record("grp", tmp_path).version == 3

    def test_negative_submission_size_rejected(self, tmp_path):
        rec = cas.create_group("grp", 2, 4, 45)
        cas.save_record(rec, tmp_path)
        path = tmp_path / "grp" / "record.txt"
        path.write_bytes(path.read_bytes().replace(b"version", b"submission 1 -20\nversion"))
        with pytest.raises(ValueError):
            cas.load_record("grp", tmp_path)

    def test_record_from_file_per_submission_layout(self, tmp_path):
        """A group as earlier versions left it, its two versions listing
        members on a `submitted` line with a file per submission: its first
        save in the inline layout, torn, falls back to the newer of them;
        whole, it loads; the next save, torn, falls back to it. The
        submission files stay throughout."""
        rec = cas.create_group("grp", 9, 4, 52)
        cas.save_record(rec, tmp_path)
        gdir = tmp_path / "grp"
        head = f"key {rec.key}\nscheme 2ofn 3 9 6 2 3\n"
        (gdir / "record.txt").write_text(head + "issued 1 1\nsubmitted 1 2\nversion 2\n")
        (gdir / "record.1.txt").write_text(head + "submitted 1\nversion 1\n")
        legacy = {}
        for i in (1, 2):
            legacy[f"submission_{i}.pbm"] = write_pbm(read_pbm(rec.shares[i - 1]), "P1")
            (gdir / f"submission_{i}.pbm").write_bytes(legacy[f"submission_{i}.pbm"])
        both = {1: rec.shares[0], 2: rec.shares[1]}
        steps = [(_fail_after(30), {**both, 3: rec.shares[2]}, both, 3),
                 (None, {**both, 3: rec.shares[2]}, {**both, 3: rec.shares[2]}, 4),
                 (_fail_after(20), {}, {**both, 3: rec.shares[2]}, 4)]
        for write, submissions, expected, version in steps:
            loaded = cas.load_record("grp", tmp_path)
            if write:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(cas.Path, "write_bytes", write)
                    with pytest.raises(OSError, match="simulated"):
                        cas.save_record(loaded, tmp_path, submissions)
            else:
                cas.save_record(loaded, tmp_path, submissions)
            loaded = cas.load_record("grp", tmp_path)
            assert (loaded.submissions, loaded.version) == (expected, version)
            assert {name: (gdir / name).read_bytes() for name in legacy} == legacy


@contextlib.contextmanager
def serving(state_dir, model):
    """A CasServer for state_dir on a free port, stopped on exit; it polls
    for shutdown every 10 ms."""
    srv = cas.CasServer(("127.0.0.1", 0), cas.CasState(state_dir, model))
    thread = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def client(srv, timeout=30.0):
    return cas.CasClient("127.0.0.1", srv.server_address[1], timeout=timeout)


@pytest.fixture()
def server(tmp_path, model):
    with serving(tmp_path / "state", model) as srv:
        yield srv


def wait_until(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def sidecar(rec, member):
    return vcs.share_sidecar(rec.params, rec.shape, member, rec.group_id).encode()


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
        """SUBMIT packs its payload once; AUTH packs nothing."""
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

    def test_fetch_writes_no_pbm(self, server, monkeypatch):
        """FETCH sends the share as held, packing nothing."""
        def no_write_pbm(*args):
            raise AssertionError("write_pbm ran")

        c = client(server)
        try:
            assert c.create("g", 21, 6, 5) == "OK g 21"
            monkeypatch.setattr(cas, "write_pbm", no_write_pbm)
            for m in (1, 21):
                reply, payload = c.fetch("g", m)
                assert reply == f"SHARE g {m} {len(payload)}"
                assert read_pbm(payload).a.shape == (216, 1512)
        finally:
            c.close()

    def test_fetch_bytes_pinned(self, tmp_path, model):
        """SHA-256 over every FETCH reply and payload of one group per scheme
        size, as issued and after a restart reads the shares back."""
        groups = {("a", 2, 4, 1): "e86a2c02f86195f12c4bd94766c244dbe763be6d0836f9f0d53378fa70f81b86",
                  ("b", 9, 1, 2): "eac46bda0ce88772f867f26404de4e190c6603016283c059d4a37565818ad976",
                  ("c", 21, 6, 3): "4348fbffdc66b2346dae077d867ba2d3eec03f0e573d646fc35eaeb71f77896f"}

        def digests(c):
            out = {}
            for gid, n, key_len, seed in groups:
                h = hashlib.sha256()
                for m in range(1, n + 1):
                    reply, payload = c.fetch(gid, m)
                    h.update(reply.encode() + b"\n" + payload)
                out[gid, n, key_len, seed] = h.hexdigest()
            return out

        state_dir = tmp_path / "state"
        for restart in (False, True):
            with serving(state_dir, model) as srv:
                c = client(srv)
                try:
                    if not restart:
                        for gid, n, key_len, seed in groups:
                            assert c.create(gid, n, key_len, seed) == f"OK {gid} {n}"
                    assert digests(c) == groups, restart
                finally:
                    c.close()

    def test_state_survives_restart(self, tmp_path, model):
        state_dir = tmp_path / "state"
        with serving(state_dir, model) as srv:
            c = client(srv)
            c.create("g", 2, 4, 88)
            _, p1 = c.fetch("g", 1)
            _, p2 = c.fetch("g", 2)
            c.submit("g", 1, pbm_payload(p1))
            c.submit("g", 2, pbm_payload(p2))
            assert c.auth("g") == "GRANTED g"
            c.close()

        # fresh process state from disk: submissions and shares intact
        with serving(state_dir, model) as srv2:
            c2 = client(srv2)
            try:
                _, p1b = c2.fetch("g", 1)
                assert p1b == p1
                assert c2.auth("g") == "GRANTED g"
                assert c2.reset("g") == "OK"
            finally:
                c2.close()

        with serving(state_dir, model) as srv3:
            c3 = client(srv3)
            try:
                assert c3.auth("g") == "DENIED g InsufficientShares"
            finally:
                c3.close()

    def test_corrupt_record_moved_aside_at_startup(self, tmp_path, model, caplog):
        state_dir = tmp_path / "state"
        with serving(state_dir, model) as srv:
            c = client(srv)
            for gid in ("good", "garbage", "swapped"):
                assert c.create(gid, 9, 6, 90) == f"OK {gid} 9"
            p1, p2 = (pbm_payload(c.fetch("good", m)[1]) for m in (1, 2))
            c.close()
        swapped = state_dir / "swapped" / "record.txt"
        key = swapped.read_text().splitlines()[0].split()[1]
        swapped.write_text(swapped.read_text().replace("2ofn 3 9 6 2 3", "2ofn 3 9 6 3 2"))
        (state_dir / "garbage" / "record.txt").write_text("not a record\n")
        (state_dir / "stray.d").mkdir()
        (state_dir / "stray.d" / "record.txt").write_text("not a record\n")

        with caplog.at_level(logging.WARNING, logger="viskey.cas"):
            with serving(state_dir, model) as srv:
                c = client(srv)
                try:
                    assert c.auth("garbage").startswith("ERR unknowngroup")
                    assert c.auth("swapped").startswith("ERR unknowngroup")
                    assert c.submit("good", 1, p1) == "ACCEPTED 1"
                    assert c.submit("good", 2, p2) == "ACCEPTED 2"
                    assert c.auth("good") == "GRANTED good"
                finally:
                    c.close()
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 2
        assert any("garbage" in w and "KeyError" in w for w in warnings)
        assert any("swapped" in w and "ValueError" in w for w in warnings)
        assert key not in caplog.text
        names = sorted(p.name for p in state_dir.iterdir())
        assert names[0].startswith("garbage.corrupt") and names[1] == "good"
        assert names[2] == "stray.d" and names[3].startswith("swapped.corrupt")
        assert len(names) == 4

        with serving(state_dir, model) as srv:
            c = client(srv)
            try:
                assert c.auth("good") == "GRANTED good"
                assert c.create("swapped", 2, 4, 1) == "OK swapped 2"
            finally:
                c.close()


class TestProtocolInput:
    def test_bad_integer_keeps_connection(self, server):
        c = cas.CasClient("127.0.0.1", server.server_address[1])
        try:
            assert c._request("").startswith("ERR empty")
            assert c._request("FETCH g").startswith("ERR usage")
            assert c._request("CREATE g x 6 1").startswith("ERR usage")
            assert c._request("FETCH g one").startswith("ERR usage")
            assert c._request("SUBMIT g 1 -5").startswith("ERR usage")
            # int() would read these as 12, 2 and 3
            assert c._request("CREATE g 1_2 6 1").startswith("ERR usage")
            assert c._request("CREATE g +2 6 1").startswith("ERR usage")
            assert c._request("CREATE g 9 \u0663 1").startswith("ERR usage")
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

    def test_limits_keep_connection(self, server):
        c = client(server, timeout=5.0)
        try:
            t0 = time.monotonic()
            assert c._request("CREATE g 42 6 1").startswith("ERR badscheme")
            assert c._request(f"CREATE g 9 {cas.MAX_KEY_LENGTH + 1} 1").startswith("ERR badscheme")
            assert time.monotonic() - t0 < 1.0
            assert c.create("g", 2, 4, 1) == "OK g 2"
        finally:
            c.close()

    def test_long_line_closes_connection(self, server):
        c = client(server, timeout=5.0)
        try:
            try:
                c.sock.sendall(b"A" * 2**20)  # 1 MB and no newline
            except OSError:  # the server may close before it has all been sent
                pass
            assert c.rfile.readline().startswith(b"ERR toolong")
            assert c.rfile.readline() == b""
        finally:
            c.close()
        c = client(server, timeout=5.0)
        try:
            assert c.create("g", 2, 4, 1) == "OK g 2"
        finally:
            c.close()

    def test_longest_legal_lines_parse(self, server):
        gid = "x" * 64
        c = client(server, timeout=5.0)
        try:
            # MAX_LINE bytes with CRLF: read to the end, then refused on n
            line = f"CREATE {gid} {vcs.MAX_SHARES} {cas.MAX_KEY_LENGTH} {2**64 - 1}"
            assert len(line) + 2 == cas.MAX_LINE
            c.sock.sendall(line.replace(f" {vcs.MAX_SHARES} ", " 99 ").encode() + b"\r\n")
            assert c.rfile.readline().startswith(b"ERR badscheme")
            assert c.create(gid, 2, 4, 2**64 - 1) == f"OK {gid} 2"
            share = pbm_payload(c.fetch(gid, 1)[1])
            assert len(f"SUBMIT {gid} {vcs.MAX_SHARES} {cas.MAX_PAYLOAD}\r\n") < cas.MAX_LINE
            assert c.submit(gid, 1, share) == "ACCEPTED 1"
            # one byte over the bound, even with a newline, is refused
            c.sock.sendall(b"AUTH " + b"x" * (cas.MAX_LINE - 5) + b"\n")
            assert c.rfile.readline().startswith(b"ERR toolong")
            assert c.rfile.readline() == b""
        finally:
            c.close()

    @pytest.mark.parametrize("sent", [b"", b"SUBMIT g 1 100\n" + bytes(10)],
                             ids=["idle", "mid-payload"])
    def test_idle_connection_closed(self, tmp_path, model, monkeypatch, capsys, caplog, sent):
        monkeypatch.setattr(cas._Handler, "timeout", 0.2)
        with serving(tmp_path / "state", model) as srv:
            threads = threading.active_count()
            c = client(srv, timeout=5.0)
            try:
                c.sock.sendall(sent)
                assert wait_until(lambda: threading.active_count() == threads + 1)
                assert c.rfile.read() == b""  # closed, with no reply
            finally:
                c.close()
            assert wait_until(lambda: threading.active_count() == threads)
            c = client(srv, timeout=5.0)
            try:
                assert c.create("g", 2, 4, 1) == "OK g 2"
            finally:
                c.close()
        assert "Traceback" not in capsys.readouterr().err
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_connection_cap(self, tmp_path, model, monkeypatch):
        monkeypatch.setattr(cas, "MAX_CONNECTIONS", 2)
        with serving(tmp_path / "state", model) as srv:
            held = [client(srv, timeout=5.0) for _ in range(2)]
            try:
                for c in held:  # a reply means the connection holds a slot
                    assert c.auth("nope").startswith("ERR unknowngroup")
                extra = client(srv, timeout=5.0)
                try:
                    assert extra.rfile.readline().startswith(b"ERR busy")
                    assert extra.rfile.readline() == b""
                finally:
                    extra.close()
                held[0].sock.shutdown(socket.SHUT_WR)
                assert held[0].rfile.read() == b""  # the server closed it: its slot is free
                held[0].close()
                held[0] = client(srv, timeout=5.0)
                assert held[0].create("g", 2, 4, 1) == "OK g 2"
            finally:
                for c in held:
                    c.close()

    def test_short_payload_closes_connection(self, server):
        c = client(server, timeout=5.0)
        try:
            c.sock.sendall(b"SUBMIT g 1 100\n" + bytes(10))
            c.sock.shutdown(socket.SHUT_WR)
            assert c.rfile.readline().startswith(b"ERR payload expected 100 payload bytes")
            assert c.rfile.readline() == b""
        finally:
            c.close()

    def test_fetched_share_submits_as_fetched(self, server):
        """The largest FETCH payload, sidecar line included, is a SUBMIT payload."""
        c = client(server)
        try:
            n, key_len = vcs.MAX_SHARES, cas.MAX_KEY_LENGTH
            assert c.create("g", n, key_len, 1) == f"OK g {n}"
            reply, payload = c.fetch("g", 1)
            assert reply == "SHARE g 1 285164"
            assert c.submit("g", 1, payload) == "ACCEPTED 1"
            assert c.auth("g") == "DENIED g InsufficientShares"
        finally:
            c.close()

    def test_issued_share_held_once(self, tmp_path, model):
        """A SUBMIT of the issued share, as fetched or re-encoded, is held as
        the issued share's own bytes, before and after a restart; another
        share is held as sent."""
        state_dir = tmp_path / "state"
        with serving(state_dir, model) as srv:
            c = client(srv)
            try:
                assert c.create("g", 2, 4, 1) == "OK g 2"
                assert c.create("h", 2, 4, 2) == "OK h 2"
                assert c.submit("g", 1, c.fetch("g", 1)[1]) == "ACCEPTED 1"
                p1 = write_pbm(read_pbm(c.fetch("g", 2)[1]), "P1")
                assert c.submit("g", 2, p1) == "ACCEPTED 2"
                assert c.submit("h", 1, c.fetch("g", 1)[1]) == "ACCEPTED 1"
            finally:
                c.close()
            g, h = srv.cas_state.get("g"), srv.cas_state.get("h")
            assert all(g.submissions[m] is g.shares[m - 1] for m in (1, 2))
            assert h.submissions[1] == g.shares[0] != h.shares[0]
        g = cas.CasState(state_dir, model).get("g")
        assert all(g.submissions[m] is g.shares[m - 1] for m in (1, 2))

    def test_oversized_submit_closes_connection(self, server):
        c = client(server, timeout=5.0)
        try:
            # a payload of the bound itself is read (and here refused on its content)
            assert c.submit("nope", 1, bytes(cas.MAX_PAYLOAD)).startswith("ERR unknowngroup")
            # one byte more is refused before any payload byte is sent or read
            c.sock.sendall(f"SUBMIT nope 1 {cas.MAX_PAYLOAD + 1}\n".encode())
            assert c.rfile.readline().startswith(b"ERR payload")
            assert c.rfile.readline() == b""
        finally:
            c.close()
        c = client(server, timeout=5.0)
        try:
            assert c.create("g", 2, 4, 1) == "OK g 2"
        finally:
            c.close()


class TestGroupTable:
    def test_refused_creates_leave_nothing(self, tmp_path, model):
        state_dir = tmp_path / "state"
        with serving(state_dir, model) as srv:
            c = client(srv)
            try:
                for i in range(200):
                    assert c.create(f"g{i}", 5, 4, 1).startswith("ERR badscheme")
            finally:
                c.close()
            tables = {name: len(value) for name, value in vars(srv.cas_state).items()
                      if isinstance(value, (dict, set))}
        assert tables and not any(tables.values()), tables
        assert list(state_dir.iterdir()) == []

    def test_concurrent_create_one_wins(self, tmp_path, model, monkeypatch):
        """Both CREATEs pass the existence check and encode at once; the
        first to add its record saves it, the other answers `ERR exists`."""
        both_encoding = threading.Barrier(2, timeout=5)
        create_group = cas.create_group

        def create_group_together(*args):
            both_encoding.wait()
            return create_group(*args)

        monkeypatch.setattr(cas, "create_group", create_group_together)
        state_dir = tmp_path / "state"
        replies = {}
        with serving(state_dir, model) as srv:
            def create(seed):
                c = client(srv, timeout=10.0)
                try:
                    replies[seed] = c.create("g", 9, 6, seed)
                finally:
                    c.close()

            threads = [threading.Thread(target=create, args=(seed,)) for seed in (11, 12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=15)
            assert not any(t.is_alive() for t in threads)
        winners = [seed for seed, reply in replies.items() if reply == "OK g 9"]
        losers = [seed for seed, reply in replies.items() if reply.startswith("ERR exists")]
        assert len(winners) == len(losers) == 1, replies
        monkeypatch.undo()
        rec = cas.create_group("g", 9, 6, winners[0])
        with serving(state_dir, model) as srv:
            c = client(srv)
            try:
                for m in range(1, 10):
                    assert c.fetch("g", m)[1] == rec.shares[m - 1] + sidecar(rec, m)
            finally:
                c.close()

    def test_concurrent_creates_stress(self, tmp_path, model):
        """Four clients CREATE the same ten ids, each with its own seed, with
        threads switched as often as the interpreter allows: each id has one
        winner, and a restarted server serves the winner's shares."""
        state_dir = tmp_path / "state"
        gids, seeds = [f"g{i}" for i in range(10)], range(4)
        replies = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with serving(state_dir, model) as srv:
                def create_all(seed):
                    c = client(srv, timeout=10.0)
                    try:
                        for gid in gids:
                            replies[gid, seed] = c.create(gid, 2, 4, seed)
                    finally:
                        c.close()

                threads = [threading.Thread(target=create_all, args=(seed,)) for seed in seeds]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        with serving(state_dir, model) as srv:
            c = client(srv)
            try:
                for gid in gids:
                    winners = [seed for seed in seeds if replies[gid, seed] == f"OK {gid} 2"]
                    assert len(winners) == 1, gid
                    assert all(replies[gid, seed].startswith("ERR exists")
                               for seed in seeds if seed != winners[0])
                    rec = cas.create_group(gid, 2, 4, winners[0])
                    for m in (1, 2):
                        assert c.fetch(gid, m)[1] == rec.shares[m - 1] + sidecar(rec, m)
            finally:
                c.close()

    @pytest.mark.parametrize("verb", ["FETCH", "AUTH"])
    def test_fetch_writes_nothing(self, server, monkeypatch, verb):
        calls = []

        def spy(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        c = client(server)
        try:
            assert c.create("g", 9, 4, 3) == "OK g 9"
            if verb == "AUTH":
                for m in (1, 2):
                    assert c.submit("g", m, pbm_payload(c.fetch("g", m)[1])) == f"ACCEPTED {m}"
            monkeypatch.setattr(cas, "save_record", spy(cas, "save_record"))
            for name in ("write_bytes", "rename", "replace", "unlink"):
                monkeypatch.setattr(cas.Path, name, spy(cas.Path, name))
            if verb == "FETCH":
                for m in range(1, 10):
                    assert c.fetch("g", m)[0].startswith(f"SHARE g {m} ")
            else:
                assert c.auth("g") == "GRANTED g"
            assert calls == []
            # the spies see the one write of a SUBMIT, then of a RESET
            assert c.submit("g", 1, pbm_payload(c.fetch("g", 1)[1])).startswith("ACCEPTED ")
            assert c.reset("g") == "OK"
            assert calls == ["save_record", "write_bytes"] * 2
        finally:
            c.close()

    @pytest.mark.parametrize("failing", [1, 3], ids=["share", "record"])
    def test_failed_create_leaves_nothing(self, tmp_path, model, monkeypatch, failing):
        """A CREATE whose first save fails (here its first share write or its
        record write, each torn) answers `ERR internal` and leaves no group,
        in the table or on disk; a FETCH that was waiting for the save
        answers `ERR unknowngroup`, and a retried CREATE succeeds."""
        state_dir = tmp_path / "state"
        write_bytes, writes, gets = cas.Path.write_bytes, [], []
        with serving(state_dir, model) as srv:
            waiter = client(srv, timeout=10.0)
            get = srv.cas_state.get

            def counting_get(gid):
                gets.append(gid)
                return get(gid)

            def failing_write(path, data):
                writes.append(path.name)
                if len(writes) < failing:
                    return write_bytes(path, data)
                waiter.sock.sendall(b"FETCH g 1\n")  # finds the record, waits for its lock
                assert wait_until(lambda: len(gets) == 2)  # CREATE's lookup, then FETCH's
                time.sleep(0.05)
                _fail_after(10)(path, data)

            monkeypatch.setattr(srv.cas_state, "get", counting_get)
            monkeypatch.setattr(cas.Path, "write_bytes", failing_write)
            c = client(srv)
            try:
                assert c.create("g", 2, 4, 1).startswith("ERR internal")
            finally:
                c.close()
            monkeypatch.undo()
            assert writes[-1] == ("share_1.pbm", "share_2.pbm", "record.txt")[failing - 1]
            try:
                assert waiter.rfile.readline().startswith(b"ERR unknowngroup")
            finally:
                waiter.close()
            assert list(state_dir.iterdir()) == []
            assert cas.CasState(state_dir, model).get("g") is None
            c = client(srv)
            try:
                assert c.fetch("g", 1)[0].startswith("ERR unknowngroup")
                assert c.create("g", 2, 4, 1) == "OK g 2"
            finally:
                c.close()
        rec = cas.create_group("g", 2, 4, 1)
        assert cas.CasState(state_dir, model).get("g").shares == rec.shares


GIDS = ("a", "b", "c")
SUBMIT_KINDS = ("own", "foreign", "junk", "wrongsize")
# lines refused before any group is looked up, with the error code of each
MALFORMED = (
    ("", "ERR empty"), (" \t", "ERR empty"), ("FROB a", "ERR unknown"),
    ("FETCH a", "ERR usage"), ("AUTH a 1", "ERR usage"), ("CREATE a 2 4", "ERR usage"),
    ("FETCH a +1", "ERR usage"), ("CREATE a 1_0 4 1", "ERR usage"),
    ("SUBMIT a 1 \u0663", "ERR usage"), ("AUTH a.b", "ERR usage"), ("RESET a/b", "ERR usage"),
    ("FETCH ../a 1", "ERR usage"),
)


class ProtocolMachine(RuleBasedStateMachine):
    """Random requests and restarts against a real server; `self.groups`
    predicts every reply. Each group maps to the record `create_group` makes
    in-process and to the kind of share each member submitted. Most rules
    use one connection, `self.c`; `auth_after_change` spreads its requests
    over it and a second one, `self.c2`."""

    def __init__(self, model):
        super().__init__()
        self.model = model
        self.tmp = tempfile.TemporaryDirectory()
        self.servers = contextlib.ExitStack()
        self.groups = {}  # gid -> (record, {member: kind})
        self._start()

    def _start(self):
        self.srv = self.servers.enter_context(serving(Path(self.tmp.name), self.model))
        self.c = client(self.srv, timeout=10.0)
        self.c2 = client(self.srv, timeout=10.0)

    def teardown(self):
        self.c.close()
        self.c2.close()
        self.servers.close()
        self.tmp.cleanup()

    def _target(self, data, with_member=True):
        """A group id, mostly of an existing group, and a member, mostly in range."""
        gid = data.draw(st.sampled_from(sorted(self.groups) or GIDS) | st.sampled_from(GIDS))
        n = self.groups[gid][0].params.n if gid in self.groups else 2
        return gid, data.draw(st.integers(0, n + 1)) if with_member else None

    def _error(self, gid, member=None):
        """The error a request for `gid` (and `member`) gets, or None."""
        if gid not in self.groups:
            return "ERR unknowngroup"
        if member is not None and not 1 <= member <= self.groups[gid][0].params.n:
            return "ERR unknownmember"
        return None

    def _auth_reply(self, gid):
        subs = self.groups[gid][1]
        kinds = set(subs.values())
        if len(subs) < 2:
            return f"DENIED {gid} InsufficientShares"
        if "wrongsize" in kinds:
            return f"DENIED {gid} DimensionMismatch"
        return f"GRANTED {gid}" if kinds == {"own"} else f"DENIED {gid} KeyMismatch"

    def _check(self, reply, expected):
        if expected.startswith("ERR"):
            assert reply.startswith(expected + " "), (reply, expected)
        else:
            assert reply == expected

    @initialize(n=st.sampled_from([2, 9]), key_len=st.integers(1, 3),
                seed=st.integers(0, 2**16))
    def first_group(self, n, key_len, seed):
        self.create("a", n, key_len, seed)

    @rule(gid=st.sampled_from(GIDS), n=st.sampled_from([2, 5, 9]),
          key_len=st.integers(1, 3), seed=st.integers(0, 2**16))
    def create(self, gid, n, key_len, seed):
        reply = self.c.create(gid, n, key_len, seed)
        if gid in self.groups:
            self._check(reply, "ERR exists")
        elif n == 5:
            self._check(reply, "ERR badscheme")
        else:
            self._check(reply, f"OK {gid} {n}")
            self.groups[gid] = (cas.create_group(gid, n, key_len, seed), {})

    @rule(data=st.data())
    def fetch(self, data):
        self._fetch(*self._target(data))

    def _fetch(self, gid, member):
        reply, payload = self.c.fetch(gid, member)
        error = self._error(gid, member)
        if error:
            self._check(reply, error)
            return
        rec = self.groups[gid][0]
        assert payload == rec.shares[member - 1] + sidecar(rec, member)
        assert reply == f"SHARE {gid} {member} {len(payload)}"

    def _payload(self, gid, member, kind):
        if kind == "junk":
            return b"garbage"
        if kind == "wrongsize" or self._error(gid, member):
            return write_pbm(blank(8, 8), "P4")
        rec = self.groups[gid][0]
        if kind == "own":
            return rec.shares[member - 1]
        other = next(r for s in itertools.count(1)
                     if (r := cas.create_group("x", rec.params.n, len(rec.key), s)).key != rec.key)
        return other.shares[member - 1]

    @rule(data=st.data(), kind=st.sampled_from(SUBMIT_KINDS))
    def submit(self, data, kind):
        self._submit(*self._target(data), kind)

    @precondition(lambda self: self.groups)
    @rule(data=st.data())
    def submit_own(self, data):
        """A member of an existing group submits its own share."""
        gid = data.draw(st.sampled_from(sorted(self.groups)))
        self._submit(gid, data.draw(st.integers(1, self.groups[gid][0].params.n)), "own")

    def _submit(self, gid, member, kind, c=None):
        reply = (c or self.c).submit(gid, member, self._payload(gid, member, kind))
        error = self._error(gid, member) or ("ERR badpbm" if kind == "junk" else None)
        if error:
            self._check(reply, error)
            return
        subs = self.groups[gid][1]
        subs[member] = kind
        self._check(reply, f"ACCEPTED {len(subs)}")

    @rule(data=st.data())
    def auth(self, data):
        self._auth(self._target(data, with_member=False)[0])

    def _auth(self, gid):
        self._check(self.c.auth(gid), self._error(gid) or self._auth_reply(gid))

    @precondition(lambda self: self._own_only())
    @rule(data=st.data())
    def auth_after_change(self, data):
        """In a group that holds only its own shares, two or more of them
        (members 1 and 2 submit theirs first if fewer are held): AUTH, one
        held share replaced by a foreign or wrong-size one, AUTH again, and
        the own share submitted back. The second AUTH answers for the stack
        it finds, not the first one's. Each request goes on either
        connection. Each AUTH must answer what a fresh `authenticate` of the
        held stack decides, the contract of the group's memo; the own share
        goes back because `_auth_reply` is wrong about a mixed stack of the
        one-character keys that such a stack reads as (see
        `test_one_character_key_denies_foreign_stack`)."""
        gid = data.draw(st.sampled_from(self._own_only()))
        subs = self.groups[gid][1]
        for member in (1, 2):
            if len(subs) < 2 and member not in subs:
                self._submit(gid, member, "own", self._either(data))
        member = data.draw(st.sampled_from(sorted(subs)))
        self._check(self._either(data).auth(gid), self._decided_reply(gid))
        self._submit(gid, member, data.draw(st.sampled_from(["foreign", "wrongsize"])),
                     self._either(data))
        self._check(self._either(data).auth(gid), self._decided_reply(gid))
        self._submit(gid, member, "own", self._either(data))

    def _own_only(self):
        return sorted(gid for gid, (_, subs) in self.groups.items()
                      if set(subs.values()) <= {"own"})

    def _either(self, data):
        return getattr(self, data.draw(st.sampled_from(["c", "c2"])))

    def _decided_reply(self, gid):
        rec, kinds = self.groups[gid]
        held = {m: self._payload(gid, m, kind) for m, kind in kinds.items()}
        d = cas.authenticate(cas.GroupRecord(gid, rec.key, rec.params, rec.shares, held),
                             self.model)
        return f"GRANTED {gid}" if d.outcome == cas.GRANTED else f"DENIED {gid} {d.reason}"

    @rule(data=st.data())
    def reset(self, data):
        gid = self._target(data, with_member=False)[0]
        reply = self.c.reset(gid)
        error = self._error(gid)
        if not error:
            self.groups[gid][1].clear()
        self._check(reply, error or "OK")

    @rule(data=st.data(), line=st.sampled_from(MALFORMED))
    def malformed(self, data, line):
        """A malformed line gets its error, and the connection answers the next request."""
        request, error = line
        self._check(self.c._request(request), error)
        self._fetch(*self._target(data))

    @precondition(lambda self: self.groups)
    @rule(data=st.data(), verb=st.sampled_from(["SUBMIT", "RESET"]), k=st.integers(0, 4000))
    def failed_save(self, data, verb, k):
        """A SUBMIT or RESET whose save is torn after at most k bytes answers
        `ERR internal`, closes the connection and changes nothing."""
        gid = data.draw(st.sampled_from(sorted(self.groups)))

        def torn(path, payload):
            _fail_after(min(k, len(payload) - 1))(path, payload)

        with mock.patch.object(cas.Path, "write_bytes", torn):
            if verb == "SUBMIT":
                reply = self.c.submit(gid, 1, self.groups[gid][0].shares[0])
            else:
                reply = self.c.reset(gid)
        assert reply.startswith("ERR internal ")
        self.c.close()
        self.c = client(self.srv, timeout=10.0)

    @rule()
    def restart(self):
        """A new CasState on the same directory; then every group answers
        FETCH and AUTH as before."""
        self.c.close()
        self.c2.close()
        self.servers.close()
        self._start()
        for gid in self.groups:
            self._fetch(gid, 1)
            self._auth(gid)


def test_protocol_matches_model(model, caplog):
    caplog.set_level(logging.CRITICAL, logger="viskey.cas")  # each failed save logs a traceback
    # max_examples comes from the Hypothesis profile (see conftest.py)
    run_state_machine_as_test(lambda: ProtocolMachine(model),
                              settings=settings(deadline=None, stateful_step_count=40))
