"""Golden digests: the exact output bits of the evaluator, the inverse, the
grid writers and the selftest on fixed seeded inputs.

A change meant to leave every output bit alone (a leaner kernel, cheaper
value types) must keep each digest. A change meant to move bits updates the
digests in the same commit and says why; ``python tests/test_golden.py``
(with ``src`` on the path) prints the current ones.

The inputs are drawn from literal constants, not from the library, so a
change to the library's K or sampler cannot move them.
"""

import cmath
import hashlib
import math
import random

from dixonian import cli, run_selftest, sm_cm, sm_inverse, wp

#: K, the periods and gamma as literals (K as dixon_constants() gives it)
_K = 1.7666387502854497
_GAMMA = complex(-0.5, math.sqrt(3.0) / 2.0)
_W1, _W2 = complex(3.0 * _K, 0.0), 3.0 * _K * _GAMMA
_POLES = (complex(-_K, 0.0), -_K * _GAMMA, -_K * _GAMMA.conjugate())

GOLDEN = {
    "sm_cm": "2ad203b504aeee9d4efa68b017b4150a563ac542c7de855de0b285d6710b39d0",
    "wp": "e29288de0d1bcd705cfda8e8194d2653242032063c53fefba460b20d60462ffb",
    "sm_inverse": "0a696c7e1916f88fb9fb72ad977bb0eed134621a4d048cf8341a53f3c3c48340",
    "ppm": "b5ac17f2876090738da14b64f0d1878900ce55de345bdbc25fc92fbdf8bf22dd",
    "csv": "7c7fd2187cb204f04fbf8a3ad94c28bd85cf2e8a13d4241f49f7d44c23893468",
    "selftest": "eae97a4a496374147ef2d421e26e13f336fcf7d7dc559a2b60d437d9cfdf0ce5",
}


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _points():
    rng = random.Random(20190112)
    cell = [rng.uniform(-0.5, 0.5) * _W1 + rng.uniform(-0.5, 0.5) * _W2 for _ in range(600)]
    near = [
        p + cmath.rect(_log_uniform(rng, 1e-13, 0.08), rng.uniform(0.0, 2.0 * math.pi))
        for p in _POLES
        for _ in range(60)
    ]
    far = [cmath.rect(_log_uniform(rng, 1.0, 1e12), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(300)]
    exact = [0j, complex(-0.0, -0.0), complex(-0.0, 0.3), 0.5, -0.5j, *_POLES, _K, _W1, _W1 + _W2]
    return cell + near + far + exact


def _lattice_points():
    # wp next to the lattice points 0, w1 and w2, where (1 - cm) cancels
    rng = random.Random(27)
    return [
        t + cmath.rect(_log_uniform(rng, 1e-5, 0.3), rng.uniform(0.0, 2.0 * math.pi))
        for t in (0j, _W1, _W2)
        for _ in range(60)
    ]


def _targets():
    rng = random.Random(1901)
    disc = [cmath.rect(0.95 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(60)]
    # 1e-8..1e-2 inside each branch point gamma**j
    branch = [
        b * (1.0 - _log_uniform(rng, 1e-8, 1e-2) * cmath.exp(1j * rng.uniform(-1.0, 1.0)))
        for b in (1.0, _GAMMA, _GAMMA.conjugate())
        for _ in range(10)
    ]
    return disc + branch + [1.0, -1.0]


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _grid_bytes(tmp_dir, fn, fmt):
    out = tmp_dir / f"golden-{fn}.{fmt}"
    assert cli.main(["grid", "--fn", fn, "--preset", "cell", "--nx", "45", "--ny", "16",
                     "--format", fmt, "--out", str(out)]) == 0
    return out.read_bytes()


def digests(tmp_dir):
    pts = _points()
    return {
        "sm_cm": _sha(repr(sm_cm(z)) for z in pts),
        "wp": _sha(repr(wp(z)) for z in pts + _lattice_points()),
        "sm_inverse": _sha(repr(sm_inverse(w)) for w in _targets()),
        "ppm": hashlib.sha256(b"".join(_grid_bytes(tmp_dir, fn, "ppm") for fn in ("sm", "wp"))).hexdigest(),
        "csv": hashlib.sha256(_grid_bytes(tmp_dir, "cm", "csv")).hexdigest(),
        "selftest": _sha(repr(r) for r in run_selftest()),
    }


def test_outputs_match_golden_digests(tmp_path):
    got = digests(tmp_path)
    changed = sorted(name for name in GOLDEN if got[name] != GOLDEN[name])
    assert not changed, f"output bits moved: {changed}"


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in digests(pathlib.Path(tmp)).items():
            print(f'    "{name}": "{digest}",')
