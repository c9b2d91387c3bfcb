"""Acceptance suite: one test per criterion, each emitting a single
"criterion N: PASS/FAIL" line with the measured values at the stated
tolerances."""

import hashlib
import itertools
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_image
from viskey import cas, classify, vcs
from viskey.bitimage import BitImage, downsample_majority, read_pbm, write_pbm
from viskey.cli import run_cli
from viskey.denoise import adaptive_filter
from viskey.font import ALPHABET, FONT_IDS
from viskey.ocr import extract_features, geometric_moment

from test_vcs import T3_S1


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def test_criterion_01_pixel_expansion_law():
    vcs.scheme_params(9)  # warm-up
    t0 = time.perf_counter()
    ok = True
    for n in (9, 12, 15, 21):
        p = vcs.scheme_params(n)
        ok &= p.m == n * (n - 3) // 9 == p.t * (p.t - 1)
    dt = time.perf_counter() - t0
    report(1, ok and dt < 1e-3, f"m = n(n−3)/9 for n ∈ {{9,12,15,21}}, {dt * 1e6:.0f} µs")


def test_criterion_02_basis_matrix_suite():
    t0 = time.perf_counter()
    ok = True
    for t in (3, 4, 5, 7):
        b = vcs.basis_matrices(t)
        n, m = 3 * t, t * (t - 1)
        ok &= b.s1.shape == (n, m)
        ok &= bool(np.all(b.s1.sum(axis=1) == t - 1))
        ok &= bool(np.all(b.s0.sum(axis=1) == t - 1))
        for i, j in itertools.combinations(range(n), 2):
            w1 = int((b.s1[i] | b.s1[j]).sum())
            w0 = int((b.s0[i] | b.s0[j]).sum())
            ok &= w1 in (2 * t - 3, 2 * (t - 1)) and w0 == t - 1
            ok &= w1 - w0 >= t - 2  # contrast gap
    ok &= bool(np.array_equal(vcs.basis_matrices(3).s1, T3_S1))
    dt = time.perf_counter() - t0
    report(2, ok and dt < 1.0, f"t ∈ {{3,4,5,7}} exhaustive + t=3 fixture, {dt:.2f} s")


def test_criterion_03_single_share_security():
    rng = np.random.default_rng(303)
    ok = True
    for n, per_block in ((2, 1), (9, 2)):
        p = vcs.scheme_params(n)
        for k in range(20):
            secret = random_image(rng, 32, 32)
            for sh in vcs.encode(secret, p, 3000 + k):
                sums = sh.a.reshape(32, p.block_h, 32, p.block_w).sum(axis=(1, 3))
                ok &= bool(np.all(sums == per_block))
    # TwoOfTwo pattern frequencies per color over 20 x 1024 pixels
    p2 = vcs.scheme_params(2)
    counts = {0: [0, 0], 1: [0, 0]}
    for k in range(20):
        secret = random_image(rng, 32, 32)
        share = vcs.encode(secret, p2, 4000 + k)[0]
        blocks = share.a.reshape(32, 32, 2)
        left_black = blocks[:, :, 0] == 1
        for color in (0, 1):
            mask = secret.a == color
            counts[color][0] += int((left_black & mask).sum())
            counts[color][1] += int(mask.sum())
    freqs = {c: counts[c][0] / counts[c][1] for c in (0, 1)}
    ok &= all(abs(f - 0.5) <= 0.05 for f in freqs.values())
    report(3, ok, "constant share-block counts, zero violations; "
           f"2of2 [■□] freq white {freqs[0]:.3f}, black {freqs[1]:.3f} (0.5 ± 0.05)")


def test_criterion_04_lossless_threshold_oracle():
    rng = np.random.default_rng(404)
    ok = True
    for n in (2, 9):
        p = vcs.scheme_params(n)
        white_w = 1 if n == 2 else p.t - 1
        black_w = 2 if n == 2 else 2 * p.t - 3
        midpoint = (white_w + black_w) / 2
        for k in range(50):
            secret = random_image(rng, 16, 16)
            shares = vcs.encode(secret, p, 5000 + k)
            pairs = [(0, 1)]
            if n == 9:
                pairs.append(tuple(sorted(rng.choice(9, size=2, replace=False))))
            for i, j in pairs:
                merged = vcs.reconstruct([shares[i], shares[j]])
                sums = merged.a.reshape(16, p.block_h, 16, p.block_w).sum(axis=(1, 3))
                ok &= bool(np.all((sums > midpoint) == (secret.a == 1)))
    report(4, ok, "midpoint block-count threshold recovers every pixel, "
           "50 secrets per scheme, n ∈ {2, 9}")


def stroke_secret(rng):
    """Random 32×32 secret built from strokes with all runs ≥ 3 px."""
    a = np.zeros((32, 32), dtype=np.uint8)
    for _ in range(int(rng.integers(4, 8))):
        thick = int(rng.integers(3, 6))
        length = int(rng.integers(8, 29))
        r = int(rng.integers(0, 33 - thick))
        c = int(rng.integers(0, 33 - length))
        if rng.integers(2):
            a[r : r + thick, c : c + length] = 1
        else:
            a[c : c + length, r : r + thick] = 1
    return BitImage(a)


def test_criterion_05_filter_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    results = {}
    for n in (2, 9):
        p = vcs.scheme_params(n)
        agreements = []
        for k in range(50):
            secret = stroke_secret(rng)
            merged = vcs.reconstruct(vcs.encode(secret, p, 6000 + k)[:2])
            recovered = downsample_majority(adaptive_filter(merged, p), p.block_h, p.block_w)
            agreements.append(float((recovered.a == secret.a).mean()))
        results[n] = (min(agreements), sum(agreements) / len(agreements))
    dt = time.perf_counter() - t0
    ok = all(mn >= 0.995 for mn, _ in results.values()) and dt < 10.0
    report(5, ok, "pixel agreement (min/mean over 50 trials): "
           f"TwoOfTwo {results[2][0]:.4f}/{results[2][1]:.4f}, "
           f"t=3 {results[9][0]:.4f}/{results[9][1]:.4f}; required min ≥ 0.995; {dt:.1f} s")


def test_criterion_06_recognition_rate(model):
    t0 = time.perf_counter()
    p = vcs.scheme_params(2)
    rng = np.random.default_rng(2024)
    full_ok = full_n = lofo_ok = lofo_n = 0
    for k in range(500):
        label = ALPHABET[rng.integers(36)]
        fid = FONT_IDS[rng.integers(10)]
        secret = cas.render_key_image(label, fid)
        merged = vcs.reconstruct(vcs.encode(secret, p, int(rng.integers(2**31))))
        trial_model = model if k % 2 == 0 else model.without_font(fid)
        decoded = classify.decode_string(merged, trial_model, p)
        if k % 2 == 0:
            full_n += 1
            full_ok += decoded == label
        else:
            lofo_n += 1
            lofo_ok += decoded == label
    dt = time.perf_counter() - t0
    overall = (full_ok + lofo_ok) / 500
    in_model = full_ok / full_n
    ok = overall >= 0.95 and in_model >= 0.99 and dt < 120
    report(6, ok, f"500 end-to-end trials: in-model {full_ok}/{full_n} = {in_model:.1%} "
           f"(≥ 99%), overall {overall:.1%} (≥ 95%), leave-one-font-out {lofo_ok}/{lofo_n}; {dt:.0f} s")


def test_criterion_07_1nn_oracle_equivalence():
    rng = np.random.default_rng(707)
    t0 = time.perf_counter()
    ok = True
    for _ in range(1000):
        k = int(rng.integers(1, 12))
        feats = [rng.random(48) for _ in range(k)]
        if k > 1 and rng.random() < 0.4:
            feats[int(rng.integers(k))] = feats[int(rng.integers(k))].copy()  # force ties
        samples = tuple(
            classify.LabeledSample(ALPHABET[int(rng.integers(36))], f, f"s{i}")
            for i, f in enumerate(feats)
        )
        m = classify.Model(samples)
        x = samples[int(rng.integers(k))].features if rng.random() < 0.3 else rng.random(48)
        got = classify.classify_1nn(x, m)
        dists = [classify.euclidean_distance(x, s.features) for s in samples]
        best = min(range(k), key=lambda i: (dists[i], ALPHABET.index(samples[i].label), i))
        ok &= got[0] == samples[best].label and abs(got[1] - dists[best]) < 1e-12
    dt = time.perf_counter() - t0
    report(7, ok and dt < 1.0, f"1000 randomized instances match the exhaustive-scan "
           f"oracle incl. tie rule; {dt:.2f} s")


def test_criterion_08_feature_correctness():
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(200):
        block = (rng.random((8, 8)) < rng.random()).astype(np.uint8)
        for p, q in ((0, 0), (1, 0), (0, 1), (1, 1)):
            brute = sum(
                (x**p) * (y**q)
                for y in range(8)
                for x in range(8)
                if block[y, x]
            )
            ok &= geometric_moment(block, p, q) == brute
    feats = extract_features(np.ones((32, 32), dtype=np.uint8)).reshape(16, 3)
    ok &= bool(np.all(feats == [1.0, 0.5, 0.5]))
    report(8, ok, "moments equal brute-force sums on 200 random 8×8 blocks; "
           "all-black glyph yields (1, 0.5, 0.5)×16 exactly")


def _free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def _start_server(port, state_dir, model_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "viskey.cli", "serve", "--port", str(port),
         "--state", str(state_dir), "--model", str(model_path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    for _ in range(100):
        try:
            socket.create_connection(("127.0.0.1", port), 0.2).close()
            return proc
        except OSError:
            time.sleep(0.1)
    proc.kill()
    raise RuntimeError("server did not start")


def _pair_trials(n, model, trials, seed0):
    granted = total = 0
    singles_ok = singles_n = 0
    records = []
    for trial in range(trials):
        rec = cas.create_group(f"g{n}_{trial}", n, 6, seed0 + trial)
        records.append(rec)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            rec.submissions = {i: rec.shares[i - 1], j: rec.shares[j - 1]}
            granted += cas.authenticate(rec, model).outcome == cas.GRANTED
            total += 1
        for i in range(1, n + 1):
            rec.submissions = {i: rec.shares[i - 1]}
            d = cas.authenticate(rec, model)
            singles_ok += (d.outcome, d.reason) == (cas.DENIED, cas.INSUFFICIENT_SHARES)
            singles_n += 1
    cross_ok = cross_n = 0
    for a in range(trials):
        b = (a + 1) % trials
        ra, rb = records[a], records[b]
        if ra.key == rb.key:
            continue
        ra.submissions = {1: ra.shares[0], 2: rb.shares[1]}
        d = cas.authenticate(ra, model)
        cross_ok += (d.outcome, d.reason) == (cas.DENIED, cas.KEY_MISMATCH)
        cross_n += 1
    return granted, total, singles_ok, singles_n, cross_ok, cross_n


def _tcp_trials(n, port, trials, seed0):
    c = cas.CasClient("127.0.0.1", port)
    granted = total = singles_ok = singles_n = 0
    try:
        for trial in range(trials):
            gid = f"g{trial}"
            assert c.create(gid, n, 6, seed0 + trial).startswith("OK")
            payloads = {}
            for m in range(1, n + 1):
                _, payload = c.fetch(gid, m)
                payloads[m] = write_pbm(read_pbm(payload), "P4")
            for i, j in itertools.combinations(range(1, n + 1), 2):
                c.reset(gid)
                c.submit(gid, i, payloads[i])
                c.submit(gid, j, payloads[j])
                granted += c.auth(gid) == f"GRANTED {gid}"
                total += 1
            c.reset(gid)
            c.submit(gid, 1, payloads[1])
            singles_ok += c.auth(gid) == f"DENIED {gid} InsufficientShares"
            singles_n += 1
    finally:
        c.close()
    return granted, total, singles_ok, singles_n


def test_criterion_09_cas_end_to_end(model, tmp_path):
    results = {}
    for n in (2, 9):
        results[n] = _pair_trials(n, model, trials=25, seed0=9000 + n)

    # service variant against live serve instances, plus kill/restart
    tcp = {}
    restart_ok = True
    model_path = tmp_path / "model.txt"
    classify.save_model(model, model_path)
    for n in (2, 9):
        state = tmp_path / f"state{n}"
        port = _free_port()
        proc = _start_server(port, state, model_path)
        try:
            tcp[n] = _tcp_trials(n, port, trials=25, seed0=9500 + n)
        finally:
            proc.kill()
            proc.wait()
        # restart: persisted state must reproduce the last decision
        proc = _start_server(port, state, model_path)
        try:
            c = cas.CasClient("127.0.0.1", port)
            reply = c.auth("g0")
            restart_ok &= reply.startswith("DENIED g0 InsufficientShares")
            reply, payload = c.fetch("g0", 1)
            restart_ok &= reply.startswith("SHARE g0 1 ")
            c.close()
        finally:
            proc.kill()
            proc.wait()

    parts = []
    ok = restart_ok
    for n in (2, 9):
        g, t, s_ok, s_n, x_ok, x_n = results[n]
        tg, tt, ts_ok, ts_n = tcp[n]
        ok &= g == t and s_ok == s_n and (x_ok / x_n) >= 0.99
        ok &= tg == tt and ts_ok == ts_n
        parts.append(f"n={n}: pairs {g}/{t} (TCP {tg}/{tt}), 1-share denied {s_ok}/{s_n} "
                     f"(TCP {ts_ok}/{ts_n}), cross-group KeyMismatch {x_ok}/{x_n}")
    report(9, ok, "; ".join(parts) + f"; restart persistence {'ok' if restart_ok else 'BROKEN'}")


def _pipeline_run(tmp, run_cli_fn):
    out = Path(tmp)
    out.mkdir(exist_ok=True)
    key = out / "key.pbm"
    run_cli_fn(["render", "K9", "--out", str(key)])
    run_cli_fn(["encode", str(key), "--scheme", "2", "--seed", "21",
                "--out-prefix", str(out / "sh")])
    run_cli_fn(["reconstruct", str(out / "sh_1.pbm"), str(out / "sh_2.pbm"),
                "--out", str(out / "merged.pbm")])
    run_cli_fn(["denoise", str(out / "merged.pbm"), "--sidecar", str(out / "sh_1.txt"),
                "--out", str(out / "clean.pbm")])
    run_cli_fn(["train", "--scheme", "2", "--seed", "31",
                "--out", str(out / "model.txt")])
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()


def test_criterion_10_determinism(tmp_path, capsys):
    h1 = _pipeline_run(tmp_path / "run1", run_cli)
    h2 = _pipeline_run(tmp_path / "run2", run_cli)
    capsys.readouterr()
    run_cli(["demo", "--n", "2", "--seed", "6"])
    demo1 = capsys.readouterr().out
    run_cli(["demo", "--n", "2", "--seed", "6"])
    demo2 = capsys.readouterr().out
    ok = h1 == h2 and demo1 == demo2 and "AUTH: GRANTED" in demo1
    report(10, ok, f"seeded CLI stages byte-identical across runs "
           f"(sha256 {h1[:12]}…), demo output identical")
