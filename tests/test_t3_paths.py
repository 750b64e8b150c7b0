"""Pinned ``T3Result.path`` traces for seeded random codes that contain g0.

Every pinned code goes through the u^2-part set (directly, or under
"adjoin-g3"), so the pins fix each member, each pairwise elimination and its
valuation.  The traces are compared as JSON, key order included, because
``analyze`` prints them in that order.  The codes marked "precision n - v"
have a pairwise elimination whose valuation comes out wrong when the unit
that cancels a member x is inverted only mod s^(n - v), v the valuation of
the pivot part, instead of mod s^(n - val x): they pin that precision.
"""

import json
import random

import pytest

import u4codes as u

# (p, m, k, seed) -> path of the first g0-type code that random_code draws
# from random.Random(seed) over F_{p^m} at length p^k.
PINNED_PATHS = {
    (2, 1, 2, 0): (  # <g0,g2,g3>
        {'method': 'adjoin-g3',
         'r3': 0,
         't_hat': 0,
         'sub': {'method': 'u2-set',
                 'set_size': 2,
                 'nu': 2,
                 'omegas': [0, 3],
                 'taus': [3],
                 'm': 3,
                 'members': ['u*ug0', 'g2'],
                 'min_set': [['w[g2]', 0], ['w[u*ug0]', 3], ['elim[g2|u*ug0]', 3]]}}
    ),
    (2, 1, 2, 1): (  # <g0,g1>
        {'method': 'u2-set',
         'set_size': 4,
         'nu': 3,
         'omegas': [0, 1, 3],
         'taus': [3, 3],
         'm': 3,
         'members': ['sA', 'elim(ug0,g1)', 'u*ug0', 'u*g1'],
         'min_set': [['w[u*g1]', 0], ['w[u*ug0]', 1], ['w[sA]', 3], ['u3[elim(ug0,g1)]', 0],
                     ['elim[u*g1|sA]', 3], ['elim[u*ug0|sA]', 3]]}
    ),
    (2, 1, 2, 271): (  # <g0,g1,g3>; precision n - v
        {'method': 'adjoin-g3',
         'r3': 1,
         't_hat': 1,
         'sub': {'method': 'u2-set',
                 'set_size': 7,
                 'nu': 6,
                 'omegas': [1, 1, 2, 2, 3, 3],
                 'taus': [1, 1, 1, 1, 1, 1, 1, 1, 2, 3, 3, 3],
                 'm': 1,
                 'members': ['elim(sA,ug0)', 'elim(sA,g1)', 'elim(ug0,g1)', 's-shift(sA)',
                             'u*sA', 'u*ug0', 'u*g1'],
                 'min_set': [['w[elim(sA,ug0)]', 1], ['w[elim(ug0,g1)]', 1], ['w[u*g1]', 2],
                             ['w[u*sA]', 2], ['w[elim(sA,g1)]', 3], ['shift[elim(sA,g1)]', 2],
                             ['w[u*ug0]', 3], ['shift[u*ug0]', 2], ['u3[s-shift(sA)]', 3],
                             ['elim[elim(sA,ug0)|elim(ug0,g1)]', 2],
                             ['elim[elim(sA,ug0)|u*sA]', 3],
                             ['elim[elim(sA,ug0)|elim(sA,g1)]', 1],
                             ['elim[elim(sA,ug0)|u*ug0]', 1], ['elim[elim(ug0,g1)|u*g1]', 3],
                             ['elim[elim(ug0,g1)|elim(sA,g1)]', 1],
                             ['elim[elim(ug0,g1)|u*ug0]', 1], ['elim[u*g1|u*sA]', 3],
                             ['elim[u*g1|elim(sA,g1)]', 1], ['elim[u*g1|u*ug0]', 1],
                             ['elim[u*sA|elim(sA,g1)]', 1], ['elim[u*sA|u*ug0]', 1]]}}
    ),
    (2, 1, 3, 1): (  # <g0,g1,g2,g3>
        {'method': 'adjoin-g3',
         'r3': 0,
         't_hat': 0,
         'sub': {'method': 'u2-set',
                 'set_size': 3,
                 'nu': 3,
                 'omegas': [0, 0, 5],
                 'taus': [],
                 'm': None,
                 'members': ['u*ug0', 'u*g1', 'g2'],
                 'min_set': [['w[g2]', 0], ['w[u*g1]', 0], ['w[u*ug0]', 5]]}}
    ),
    (2, 1, 3, 2): (  # <g0,g2>
        {'method': 'u2-set',
         'set_size': 4,
         'nu': 4,
         'omegas': [2, 2, 7, 7],
         'taus': [1, 2, 2, 2, 6, 7],
         'm': 1,
         'members': ['elim(sA,ug0)', 'u*sA', 'u*ug0', 'g2'],
         'min_set': [['w[elim(sA,ug0)]', 2], ['shift[elim(sA,ug0)]', 7], ['w[g2]', 2],
                     ['w[u*sA]', 7], ['shift[u*sA]', 3], ['w[u*ug0]', 7], ['shift[u*ug0]', 7],
                     ['elim[elim(sA,ug0)|g2]', 1], ['elim[elim(sA,ug0)|u*sA]', 2],
                     ['elim[elim(sA,ug0)|u*ug0]', 7], ['elim[g2|u*sA]', 2],
                     ['elim[g2|u*ug0]', 6], ['elim[u*sA|u*ug0]', 2]]}
    ),
    (2, 1, 3, 343): (  # <g0,g2,g3>; precision n - v
        {'method': 'adjoin-g3',
         'r3': 1,
         't_hat': 1,
         'sub': {'method': 'u2-set',
                 'set_size': 4,
                 'nu': 4,
                 'omegas': [2, 2, 6, 7],
                 'taus': [1, 1, 2, 2, 7],
                 'm': 1,
                 'members': ['elim(sA,ug0)', 'u*sA', 'u*ug0', 'g2'],
                 'min_set': [['w[elim(sA,ug0)]', 2], ['shift[elim(sA,ug0)]', 6], ['w[g2]', 2],
                             ['shift[g2]', 6], ['w[u*sA]', 6], ['shift[u*sA]', 3],
                             ['w[u*ug0]', 7], ['shift[u*ug0]', 6], ['elim[elim(sA,ug0)|g2]', 2],
                             ['elim[elim(sA,ug0)|u*sA]', 1], ['elim[elim(sA,ug0)|u*ug0]', 7],
                             ['elim[g2|u*sA]', 1], ['elim[u*sA|u*ug0]', 2]]}}
    ),
    (2, 2, 2, 0): (  # <g0,g1,g3>
        {'method': 'adjoin-g3',
         'r3': 0,
         't_hat': 1,
         'sub': {'method': 'u2-set',
                 'set_size': 3,
                 'nu': 3,
                 'omegas': [1, 1, 3],
                 'taus': [3, 3, 3],
                 'm': 3,
                 'members': ['elim(ug0,g1)', 'u*ug0', 'u*g1'],
                 'min_set': [['w[u*g1]', 1], ['w[u*ug0]', 1], ['w[elim(ug0,g1)]', 3],
                             ['elim[u*g1|u*ug0]', 3], ['elim[u*g1|elim(ug0,g1)]', 3],
                             ['elim[u*ug0|elim(ug0,g1)]', 3]]}}
    ),
    (2, 2, 2, 2): (  # <g0,g2>
        {'method': 'u2-set',
         'set_size': 2,
         'nu': 2,
         'omegas': [1, 2],
         'taus': [],
         'm': None,
         'members': ['u*ug0', 'g2'],
         'min_set': [['w[g2]', 1], ['w[u*ug0]', 2]]}
    ),
    (2, 2, 2, 4): (  # <g0,g1,g2>
        {'method': 'u2-set',
         'set_size': 7,
         'nu': 6,
         'omegas': [0, 0, 0, 2, 2, 2],
         'taus': [0, 0, 0, 0, 0, 2, 2, 3],
         'm': 0,
         'members': ['elim(sA,ug0)', 'elim(sA,g1)', 'elim(ug0,g1)', 'u*sA', 'u*ug0', 'u*g1',
                     'g2'],
         'min_set': [['w[elim(sA,ug0)]', 0], ['w[elim(ug0,g1)]', 0], ['w[g2]', 0],
                     ['w[u*g1]', 2], ['w[u*sA]', 2], ['w[u*ug0]', 2], ['shift[u*ug0]', 2],
                     ['u3[elim(sA,g1)]', 2], ['elim[elim(sA,ug0)|elim(ug0,g1)]', 2],
                     ['elim[elim(sA,ug0)|g2]', 2], ['elim[elim(sA,ug0)|u*ug0]', 0],
                     ['elim[elim(ug0,g1)|g2]', 3], ['elim[elim(ug0,g1)|u*ug0]', 0],
                     ['elim[g2|u*ug0]', 0], ['elim[u*g1|u*ug0]', 0], ['elim[u*sA|u*ug0]', 0]]}
    ),
    (3, 1, 2, 1): (  # <g0,g2,g3>
        {'method': 'adjoin-g3',
         'r3': 1,
         't_hat': 3,
         'sub': {'method': 'u2-set',
                 'set_size': 3,
                 'nu': 2,
                 'omegas': [3, 5],
                 'taus': [],
                 'm': None,
                 'members': ['sA', 'u*ug0', 'g2'],
                 'min_set': [['w[g2]', 3], ['w[u*ug0]', 5], ['u3[sA]', 4]]}}
    ),
    (3, 1, 2, 7): (  # <g0,g2>
        {'method': 'u2-set',
         'set_size': 4,
         'nu': 4,
         'omegas': [1, 2, 4, 6],
         'taus': [1, 1, 1, 3, 5],
         'm': 1,
         'members': ['elim(sA,ug0)', 'u*sA', 'u*ug0', 'g2'],
         'min_set': [['w[elim(sA,ug0)]', 1], ['w[g2]', 2], ['w[u*sA]', 4], ['w[u*ug0]', 6],
                     ['shift[u*ug0]', 4], ['elim[elim(sA,ug0)|g2]', 3],
                     ['elim[elim(sA,ug0)|u*ug0]', 1], ['elim[g2|u*sA]', 5],
                     ['elim[g2|u*ug0]', 1], ['elim[u*sA|u*ug0]', 1]]}
    ),
    (3, 1, 2, 194): (  # <g0,g3>; precision n - v
        {'method': 'adjoin-g3',
         'r3': 8,
         't_hat': 5,
         'sub': {'method': 'u2-set',
                 'set_size': 3,
                 'nu': 3,
                 'omegas': [6, 7, 8],
                 'taus': [5, 6],
                 'm': 5,
                 'members': ['elim(sA,ug0)', 'u*sA', 'u*ug0'],
                 'min_set': [['w[elim(sA,ug0)]', 6], ['shift[elim(sA,ug0)]', 7], ['w[u*sA]', 7],
                             ['shift[u*sA]', 7], ['w[u*ug0]', 8], ['shift[u*ug0]', 7],
                             ['elim[elim(sA,ug0)|u*sA]', 5], ['elim[u*sA|u*ug0]', 6]]}}
    ),
    (3, 1, 3, 0): (  # <g0,g2,g3>
        {'method': 'adjoin-g3',
         'r3': 8,
         't_hat': 0,
         'sub': {'method': 'u2-set',
                 'set_size': 4,
                 'nu': 4,
                 'omegas': [4, 9, 17, 22],
                 'taus': [0, 0, 4, 4, 4, 26],
                 'm': 0,
                 'members': ['elim(sA,ug0)', 'u*sA', 'u*ug0', 'g2'],
                 'min_set': [['w[elim(sA,ug0)]', 4], ['w[u*sA]', 9], ['w[g2]', 17],
                             ['shift[g2]', 10], ['w[u*ug0]', 22], ['shift[u*ug0]', 9],
                             ['elim[elim(sA,ug0)|u*sA]', 26], ['elim[elim(sA,ug0)|g2]', 0],
                             ['elim[elim(sA,ug0)|u*ug0]', 4], ['elim[u*sA|g2]', 0],
                             ['elim[u*sA|u*ug0]', 4], ['elim[g2|u*ug0]', 4]]}}
    ),
    (3, 1, 3, 1): (  # <g0,g1,g3>
        {'method': 'adjoin-g3',
         'r3': 7,
         't_hat': 10,
         'sub': {'method': 'u2-set',
                 'set_size': 7,
                 'nu': 5,
                 'omegas': [10, 10, 12, 18, 25],
                 'taus': [10, 10, 10, 10, 18, 20, 26],
                 'm': 10,
                 'members': ['elim(sA,ug0)', 'elim(sA,g1)', 'elim(ug0,g1)', 's-shift(sA)',
                             'u*sA', 'u*ug0', 'u*g1'],
                 'min_set': [['w[elim(sA,ug0)]', 10], ['w[elim(ug0,g1)]', 10], ['w[u*sA]', 12],
                             ['w[u*g1]', 18], ['w[u*ug0]', 25], ['shift[u*ug0]', 12],
                             ['u3[elim(sA,g1)]', 11], ['u3[s-shift(sA)]', 20],
                             ['elim[elim(sA,ug0)|elim(ug0,g1)]', 18],
                             ['elim[elim(sA,ug0)|u*sA]', 20], ['elim[elim(sA,ug0)|u*g1]', 26],
                             ['elim[elim(sA,ug0)|u*ug0]', 10], ['elim[elim(ug0,g1)|u*ug0]', 10],
                             ['elim[u*sA|u*ug0]', 10], ['elim[u*g1|u*ug0]', 10]]}}
    ),
    (3, 2, 1, 1): (  # <g0,g2,g3>
        {'method': 'adjoin-g3',
         'r3': 1,
         't_hat': 0,
         'sub': {'method': 'u2-set',
                 'set_size': 4,
                 'nu': 4,
                 'omegas': [0, 1, 1, 2],
                 'taus': [0, 0, 0, 0, 0],
                 'm': 0,
                 'members': ['elim(sA,ug0)', 'u*sA', 'u*ug0', 'g2'],
                 'min_set': [['w[elim(sA,ug0)]', 0], ['w[g2]', 1], ['shift[g2]', 2],
                             ['w[u*sA]', 1], ['w[u*ug0]', 2], ['shift[u*ug0]', 1],
                             ['elim[elim(sA,ug0)|g2]', 0], ['elim[elim(sA,ug0)|u*ug0]', 0],
                             ['elim[g2|u*sA]', 0], ['elim[g2|u*ug0]', 0],
                             ['elim[u*sA|u*ug0]', 0]]}}
    ),
    (3, 2, 1, 2): (  # <g0,g2>
        {'method': 'u2-set',
         'set_size': 4,
         'nu': 4,
         'omegas': [0, 1, 2, 2],
         'taus': [1, 1, 1, 1, 2],
         'm': 1,
         'members': ['elim(sA,ug0)', 'u*sA', 'u*ug0', 'g2'],
         'min_set': [['w[g2]', 0], ['w[elim(sA,ug0)]', 1], ['w[u*sA]', 2], ['w[u*ug0]', 2],
                     ['shift[u*ug0]', 2], ['elim[g2|elim(sA,ug0)]', 1], ['elim[g2|u*ug0]', 1],
                     ['elim[elim(sA,ug0)|u*sA]', 2], ['elim[elim(sA,ug0)|u*ug0]', 1],
                     ['elim[u*sA|u*ug0]', 1]]}
    ),
    (3, 2, 1, 3): (  # <g0,g1>
        {'method': 'u2-set',
         'set_size': 2,
         'nu': 2,
         'omegas': [0, 2],
         'taus': [],
         'm': None,
         'members': ['u*ug0', 'u*g1'],
         'min_set': [['w[u*g1]', 0], ['w[u*ug0]', 2]]}
    ),
    (5, 1, 2, 0): (  # <g0,g2,g3>
        {'method': 'adjoin-g3',
         'r3': 8,
         't_hat': 0,
         'sub': {'method': 'u2-set',
                 'set_size': 4,
                 'nu': 4,
                 'omegas': [4, 7, 17, 22],
                 'taus': [0, 0, 4, 4, 4, 23],
                 'm': 0,
                 'members': ['elim(sA,ug0)', 'u*sA', 'u*ug0', 'g2'],
                 'min_set': [['w[elim(sA,ug0)]', 4], ['shift[elim(sA,ug0)]', 24],
                             ['w[u*sA]', 7], ['shift[u*sA]', 24], ['w[g2]', 17],
                             ['shift[g2]', 8], ['w[u*ug0]', 22], ['shift[u*ug0]', 7],
                             ['elim[elim(sA,ug0)|u*sA]', 23], ['elim[elim(sA,ug0)|g2]', 0],
                             ['elim[elim(sA,ug0)|u*ug0]', 4], ['elim[u*sA|g2]', 0],
                             ['elim[u*sA|u*ug0]', 4], ['elim[g2|u*ug0]', 4]]}}
    ),
    (5, 1, 2, 1): (  # <g0>
        {'method': 'u2-set',
         'set_size': 3,
         'nu': 3,
         'omegas': [12, 17, 20],
         'taus': [12, 12],
         'm': 12,
         'members': ['elim(sA,ug0)', 'u*sA', 'u*ug0'],
         'min_set': [['w[elim(sA,ug0)]', 12], ['w[u*sA]', 17], ['w[u*ug0]', 20],
                     ['shift[u*ug0]', 17], ['elim[elim(sA,ug0)|u*ug0]', 12],
                     ['elim[u*sA|u*ug0]', 12]]}
    ),
    (5, 1, 2, 61): (  # <g0,g1,g2,g3>; precision n - v
        {'method': 'adjoin-g3',
         'r3': 2,
         't_hat': 0,
         'sub': {'method': 'u2-set',
                 'set_size': 6,
                 'nu': 5,
                 'omegas': [13, 16, 16, 20, 22],
                 'taus': [0, 0, 4, 6, 9, 9, 11, 11, 13],
                 'm': 0,
                 'members': ['sA', 'elim(ug0,g1)', 's-shift(g1)', 'u*ug0', 'u*g1', 'g2'],
                 'min_set': [['w[elim(ug0,g1)]', 13], ['shift[elim(ug0,g1)]', 14],
                             ['w[g2]', 16], ['shift[g2]', 9], ['w[s-shift(g1)]', 16],
                             ['shift[s-shift(g1)]', 14], ['w[u*g1]', 20], ['shift[u*g1]', 16],
                             ['w[u*ug0]', 22], ['u3[sA]', 3], ['elim[elim(ug0,g1)|g2]', 0],
                             ['elim[elim(ug0,g1)|u*g1]', 9], ['elim[elim(ug0,g1)|u*ug0]', 11],
                             ['elim[g2|s-shift(g1)]', 0], ['elim[g2|u*g1]', 4],
                             ['elim[g2|u*ug0]', 6], ['elim[s-shift(g1)|u*g1]', 9],
                             ['elim[s-shift(g1)|u*ug0]', 11], ['elim[u*g1|u*ug0]', 13]]}}
    ),
}


def first_g0_code(p, m, k, seed):
    spec, rng = u.field_make(p, m), random.Random(seed)
    while True:
        code = u.random_code(rng, spec, k)
        if 0 in code.ideal_type:
            return code


@pytest.mark.parametrize("key", list(PINNED_PATHS), ids=lambda key: "-".join(map(str, key)))
def test_t3_path_is_pinned(key):
    assert json.dumps(u.t3(first_g0_code(*key)).path) == json.dumps(PINNED_PATHS[key])
