"""The Taylor coefficients of sm and cm in binary64, through MAX_ORDER = 64.

sm(z) = z * P(z**3) and cm(z) = Q(z**3). ``P_COEFFS[k]`` is the coefficient
of z**(3k+1) in sm and ``Q_COEFFS[k]`` that of z**(3k) in cm, each the
correctly rounded double of the exact rational from the recurrence in
``series``. An order n keeps the prefixes of (n + 2) // 3 and n // 3 + 1
values.

``K``, the first positive zero of cm, is the double that every accepted
order root-finds from these coefficients (``constants.compute_K_root``); the
library reads it from here instead of finding it in every process.

Generated, not edited: ``python tests/test_series.py`` (with ``src`` on the
path) prints this table from the exact recurrence and K's root-finding, and
the test suite requires every entry to match it bit for bit.
"""

P_COEFFS = (
    1.0,
    -0.16666666666666666,
    0.031746031746031744,
    -0.005731922398589065,
    0.0010401121512232624,
    -0.00018862799947456032,
    3.4211067194760994e-05,
    -6.20473019688283e-06,
    1.1253294986830276e-06,
    -2.040969145986636e-07,
    3.7016315117286445e-08,
    -6.713514431746252e-09,
    1.2176056934824694e-09,
    -2.2083271583296325e-10,
    4.005162643655867e-11,
    -7.26401780715354e-12,
    1.3174484882961793e-12,
    -2.3894084037137127e-13,
    4.333583111944945e-14,
    -7.85966206486338e-15,
    1.4254783207821691e-15,
    -2.585338181528132e-16,
)

Q_COEFFS = (
    1.0,
    -0.3333333333333333,
    0.05555555555555555,
    -0.010141093474426807,
    0.0018371546149323927,
    -0.0003332450422397512,
    6.043842390109292e-05,
    -1.0961520730578885e-05,
    1.9880506104578436e-06,
    -3.605655201588464e-07,
    6.539445663329003e-08,
    -1.1860354746758962e-08,
    2.1510694006508413e-09,
    -3.901316331218203e-10,
    7.075675527476964e-11,
    -1.2832895340881258e-11,
    2.327455550929011e-12,
    -4.2212214762583473e-13,
    7.655875853144548e-14,
    -1.3885183567936199e-14,
    2.5183052391856133e-15,
    -4.567358614080117e-16,
)

K = float.fromhex("0x1.c4426fe852836p+0")
