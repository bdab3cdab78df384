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
"sm_cm": "2a14a33e89d83148a4c311cd2df84a99752adb20be6f4afd7a47dfe0b194144c",
    "wp": "3f7a1228ed6a0211284879a76a19d41448089329c63954ede0607d0234cfb661",
    "sm_inverse": "248778415e4033cc30a4e9cfb7053bfb98379ac7d3472533e3da0cc93d0c3282",
    "ppm": "b5ac17f2876090738da14b64f0d1878900ce55de345bdbc25fc92fbdf8bf22dd",
    "csv": "51e6443c105089ccacb401b811709455ee9f451b8c185c422f2e13e491932f9d",
    "selftest": "c87f98cb7f65a132266cdec9bdd0f4c869d068a7c940caf27d2cbb242c149321",
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
