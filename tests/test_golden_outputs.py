"""Byte-identity gate: tiny fixed-seed CLI runs must write exactly these CSVs.

A refactor that does not mean to change RNG consumption, decisions or
node counts must leave every output byte-identical for a fixed seed.  The
expected files below were written by the CLI before the two-stage session
decoder (stacked factorization, then a per-session search) replaced the
per-session build/realify/QR path, with numpy 2.4.6 on Python 3.11.7.  The
repair runs use the benchmark's arguments with 3 trials, the simulate runs
include visited_mean (the sphere decoder's node counts), and the outage runs
cover all three schemes.  A change that alters an output on purpose says so
and regenerates the affected entry.

The repair_padded entries were added later, from the CLI before sessions
became plain arrays.  Their 16-bit shares end in a zero-padded block (18
bits at m=2, 24 at m=4).  A share whose only wrongly decoded bits are
padding still counts as received, which happens at 12 dB for pair m=2 and
at 10 and 14 dB for tdma m=4 here: a repair that required every block to
decode right would change these files and no other entry.

The dmt entries (both K = 10 files and the K = 3 CSV) and simulate_tdma_m4
were added from the CLI before the three DMT curves became one group-size
formula and TDMA became the group size 1 of the session planner.

The 20-trial repair entries (the benchmark's arguments, pair m=2 and tdma
m=4) and repair_pair_m2_ml (the exhaustive ML decoder, 5 trials) were added
from the CLI at commit e9161db, before lift, Fragment and LatticePoint lost
their per-value objects: they cover many more sessions than the 3-trial
entries.
"""

import numpy as np
import pytest

from wstsim.cli import main

#: the versions the expected files were generated with
GENERATED_WITH = {"numpy": "2.4.6", "python": "3.11.7"}

#: name -> (argv without --workers/--out-dir, output file, expected contents)
GOLDEN = {
    'repair_pair_m2': (
        ['repair', '--n', '6', '--k', '3', '--d', '5', '--fragment-bits', '24', '--decoder', 'sphere', '--snr-grid', '10:30:5', '--trials', '3', '--scheme', 'pair', '--m', '2', '--seed', '11'],
        'repair_pair.csv',
        (
            '# wstsim 0.1.0\n'
            '# config: {"command": "repair", "d": 5, "decoder": "sphere", "fragment_bits": 24, "k": 3, "m": 2, "n": 6, "noiseless": false, "scheme": "pair", "seed": 11, "snr_grid_db": [10.0, 15.0, 20.0, 25.0, 30.0], "trials": 3}\n'
            'snr_db,trials,session_err_rate,share_fail_rate,repair_fail_rate,scheme\n'
            '10.0,3,0.1111111111111111,0.2,0.0,pair\n'
            '15.0,3,0.027777777777777776,0.06666666666666667,0.0,pair\n'
            '20.0,3,0.0,0.0,0.0,pair\n'
            '25.0,3,0.0,0.0,0.0,pair\n'
            '30.0,3,0.0,0.0,0.0,pair\n'
        ),
    ),
    'repair_tdma_m4': (
        ['repair', '--n', '6', '--k', '3', '--d', '5', '--fragment-bits', '24', '--decoder', 'sphere', '--snr-grid', '10:30:5', '--trials', '3', '--scheme', 'tdma', '--m', '4', '--seed', '11'],
        'repair_tdma.csv',
        (
            '# wstsim 0.1.0\n'
            '# config: {"command": "repair", "d": 5, "decoder": "sphere", "fragment_bits": 24, "k": 3, "m": 4, "n": 6, "noiseless": false, "scheme": "tdma", "seed": 11, "snr_grid_db": [10.0, 15.0, 20.0, 25.0, 30.0], "trials": 3}\n'
            'snr_db,trials,session_err_rate,share_fail_rate,repair_fail_rate,scheme\n'
            '10.0,3,0.6666666666666666,0.9333333333333333,1.0,tdma\n'
            '15.0,3,0.23333333333333334,0.4666666666666667,0.3333333333333333,tdma\n'
            '20.0,3,0.0,0.0,0.0,tdma\n'
            '25.0,3,0.0,0.0,0.0,tdma\n'
            '30.0,3,0.0,0.0,0.0,tdma\n'
        ),
    ),
    'repair_padded_pair_m2': (
        ['repair', '--n', '6', '--k', '3', '--d', '5', '--fragment-bits', '16', '--decoder', 'sphere', '--snr-grid', '8:12:4', '--trials', '60', '--scheme', 'pair', '--m', '2', '--seed', '11'],
        'repair_pair.csv',
        (
            '# wstsim 0.1.0\n'
            '# config: {"command": "repair", "d": 5, "decoder": "sphere", "fragment_bits": 16, "k": 3, "m": 2, "n": 6, "noiseless": false, "scheme": "pair", "seed": 11, "snr_grid_db": [8.0, 12.0], "trials": 60}\n'
            'snr_db,trials,session_err_rate,share_fail_rate,repair_fail_rate,scheme\n'
            '8.0,60,0.2111111111111111,0.39666666666666667,0.2833333333333333,pair\n'
            '12.0,60,0.07037037037037037,0.16666666666666666,0.06666666666666667,pair\n'
        ),
    ),
    'repair_padded_tdma_m4': (
        ['repair', '--n', '6', '--k', '3', '--d', '5', '--fragment-bits', '16', '--decoder', 'sphere', '--snr-grid', '10:18:4', '--trials', '40', '--scheme', 'tdma', '--m', '4', '--seed', '11'],
        'repair_tdma.csv',
        (
            '# wstsim 0.1.0\n'
            '# config: {"command": "repair", "d": 5, "decoder": "sphere", "fragment_bits": 16, "k": 3, "m": 4, "n": 6, "noiseless": false, "scheme": "tdma", "seed": 11, "snr_grid_db": [10.0, 14.0, 18.0], "trials": 40}\n'
            'snr_db,trials,session_err_rate,share_fail_rate,repair_fail_rate,scheme\n'
            '10.0,40,0.53,0.74,0.825,tdma\n'
            '14.0,40,0.23,0.395,0.25,tdma\n'
            '18.0,40,0.055,0.105,0.025,tdma\n'
        ),
    ),
    'simulate_pair_m2': (
        ['simulate', '--scheme', 'pair', '--m', '2', '--snr-grid', '10:30:5', '--trials', '60', '--seed', '11'],
        'simulate_pair_m2_sphere.csv',
        (
            '# wstsim 0.1.0\n'
            '# config: {"command": "simulate", "decoder": "sphere", "m": 2, "scheme": "pair", "seed": 11, "snr_grid_db": [10.0, 15.0, 20.0, 25.0, 30.0], "trials": 60}\n'
            'scheme,m,decoder,snr_db,trials,session_errors,session_err_rate,visited_mean\n'
            'pair,2,sphere,10.0,60,9,0.15,83.13333333333334\n'
            'pair,2,sphere,15.0,60,0,0.0,50.916666666666664\n'
            'pair,2,sphere,20.0,60,0,0.0,39.9\n'
            'pair,2,sphere,25.0,60,0,0.0,24.733333333333334\n'
            'pair,2,sphere,30.0,60,0,0.0,24.0\n'
        ),
    ),
    'simulate_pair_m4': (
        ['simulate', '--scheme', 'pair', '--m', '4', '--snr-grid', '10:30:10', '--trials', '20', '--seed', '11'],
        'simulate_pair_m4_sphere.csv',
        (
            '# wstsim 0.1.0\n'
            '# config: {"command": "simulate", "decoder": "sphere", "m": 4, "scheme": "pair", "seed": 11, "snr_grid_db": [10.0, 20.0, 30.0], "trials": 20}\n'
            'scheme,m,decoder,snr_db,trials,session_errors,session_err_rate,visited_mean\n'
            'pair,4,sphere,10.0,20,16,0.8,897.7\n'
            'pair,4,sphere,20.0,20,3,0.15,454.8\n'
            'pair,4,sphere,30.0,20,0,0.0,44.05\n'
        ),
    ),
    'outage_tdma': (
        ['outage', '--scheme', 'tdma', '--K', '10', '--r', '1/20', '--offset', '1', '--snr-grid', '10:25:5', '--trials', '500', '--seed', '11'],
        'outage_tdma_K10.csv',
        (
            '# wstsim 0.1.0\n'
            '# config: {"K": 10, "command": "outage", "offset": 1.0, "r": "1/20", "scheme": "tdma", "seed": 11, "snr_grid_db": [10.0, 15.0, 20.0, 25.0], "trials": 500}\n'
            'scheme,K,r,offset,snr_db,trials,outages,p_hat,ci_lo,ci_hi\n'
            'tdma,10,1/20,1.0,10.0,500,45,0.09,0.0679421955899675,0.11830999160537325\n'
            'tdma,10,1/20,1.0,15.0,500,24,0.048,0.03246497509125218,0.07042768006068446\n'
            'tdma,10,1/20,1.0,20.0,500,8,0.016,0.008129155320203278,0.03125147541771118\n'
            'tdma,10,1/20,1.0,25.0,500,1,0.002,0.0003531273095845411,0.011240992747195207\n'
        ),
    ),
    'outage_pair': (
        ['outage', '--scheme', 'pair', '--K', '10', '--r', '1/20', '--offset', '1', '--snr-grid', '10:25:5', '--trials', '500', '--seed', '11'],
        'outage_pair_K10.csv',
        (
            '# wstsim 0.1.0\n'
            '# config: {"K": 10, "command": "outage", "offset": 1.0, "r": "1/20", "scheme": "pair", "seed": 11, "snr_grid_db": [10.0, 15.0, 20.0, 25.0], "trials": 500}\n'
            'scheme,K,r,offset,snr_db,trials,outages,p_hat,ci_lo,ci_hi\n'
            'pair,10,1/20,1.0,10.0,500,38,0.076,0.05586871073410857,0.10259696578009747\n'
            'pair,10,1/20,1.0,15.0,500,4,0.008,0.0031152647975077885,0.020387359836901122\n'
            'pair,10,1/20,1.0,20.0,500,3,0.006,0.002042559297638913,0.017490563810893606\n'
            'pair,10,1/20,1.0,25.0,500,1,0.002,0.0003531273095845411,0.011240992747195207\n'
        ),
    ),
    'outage_full-mac': (
        ['outage', '--scheme', 'full-mac', '--K', '10', '--r', '1/20', '--offset', '1', '--snr-grid', '10:25:5', '--trials', '500', '--seed', '11'],
        'outage_full-mac_K10.csv',
        (
            '# wstsim 0.1.0\n'
            '# config: {"K": 10, "command": "outage", "offset": 1.0, "r": "1/20", "scheme": "full-mac", "seed": 11, "snr_grid_db": [10.0, 15.0, 20.0, 25.0], "trials": 500}\n'
            'scheme,K,r,offset,snr_db,trials,outages,p_hat,ci_lo,ci_hi\n'
            'full-mac,10,1/20,1.0,10.0,500,50,0.1,0.07667718662472012,0.1294225082000026\n'
            'full-mac,10,1/20,1.0,15.0,500,5,0.01,0.004278690781520357,0.023193435378764938\n'
            'full-mac,10,1/20,1.0,20.0,500,1,0.002,0.0003531273095845411,0.011240992747195207\n'
            'full-mac,10,1/20,1.0,25.0,500,0,0.0,0.0,0.007624618530903363\n'
        ),
    ),
    'dmt_K10': (
        ['dmt', '--K', '10', '--grid', '101'],
        'dmt_K10.csv',
        (
            '# wstsim 0.1.0\n'
            '# config: {"K": 10, "command": "dmt", "grid": 101}\n'
            'r,d_optimal,d_proposed,d_tdma\n'
            '0.0,2.0,2.0,2.0\n'
            '0.002,1.996,1.98,1.96\n'
            '0.004,1.992,1.96,1.92\n'
            '0.006,1.988,1.94,1.88\n'
            '0.008,1.984,1.92,1.84\n'
            '0.01,1.98,1.9,1.8\n'
            '0.012,1.976,1.88,1.76\n'
            '0.014,1.972,1.86,1.72\n'
            '0.016,1.968,1.84,1.68\n'
            '0.018,1.964,1.82,1.64\n'
            '0.02,1.96,1.8,1.6\n'
            '0.022,1.956,1.78,1.56\n'
            '0.024,1.952,1.76,1.52\n'
            '0.026,1.948,1.74,1.48\n'
            '0.028,1.944,1.72,1.44\n'
            '0.03,1.94,1.7,1.4\n'
            '0.032,1.936,1.68,1.36\n'
            '0.034,1.932,1.66,1.32\n'
            '0.036,1.928,1.64,1.28\n'
            '0.038,1.924,1.62,1.24\n'
            '0.04,1.92,1.6,1.2\n'
            '0.042,1.916,1.58,1.16\n'
            '0.044,1.912,1.56,1.12\n'
            '0.046,1.908,1.54,1.08\n'
            '0.048,1.904,1.52,1.04\n'
            '0.05,1.9,1.5,1.0\n'
            '0.052,1.896,1.48,0.96\n'
            '0.054,1.892,1.46,0.92\n'
            '0.056,1.888,1.44,0.88\n'
            '0.058,1.884,1.42,0.84\n'
            '0.06,1.88,1.4,0.8\n'
            '0.062,1.876,1.38,0.76\n'
            '0.064,1.872,1.36,0.72\n'
            '0.066,1.868,1.34,0.68\n'
            '0.068,1.864,1.32,0.64\n'
            '0.07,1.86,1.3,0.6\n'
            '0.072,1.856,1.28,0.56\n'
            '0.074,1.852,1.26,0.52\n'
            '0.076,1.848,1.24,0.48\n'
            '0.078,1.844,1.22,0.44\n'
            '0.08,1.84,1.2,0.4\n'
            '0.082,1.836,1.18,0.36\n'
            '0.084,1.832,1.16,0.32\n'
            '0.086,1.828,1.14,0.28\n'
            '0.088,1.824,1.12,0.24\n'
            '0.09,1.82,1.1,0.2\n'
            '0.092,1.816,1.08,0.16\n'
            '0.094,1.812,1.06,0.12\n'
            '0.096,1.808,1.04,0.08\n'
            '0.098,1.804,1.02,0.04\n'
            '0.1,1.8,1.0,0.0\n'
            '0.102,1.796,0.98,0.0\n'
            '0.104,1.792,0.96,0.0\n'
            '0.106,1.788,0.94,0.0\n'
            '0.108,1.784,0.92,0.0\n'
            '0.11,1.78,0.9,0.0\n'
            '0.112,1.776,0.88,0.0\n'
            '0.114,1.772,0.86,0.0\n'
            '0.116,1.768,0.84,0.0\n'
            '0.118,1.764,0.82,0.0\n'
            '0.12,1.76,0.8,0.0\n'
            '0.122,1.756,0.78,0.0\n'
            '0.124,1.752,0.76,0.0\n'
            '0.126,1.748,0.74,0.0\n'
            '0.128,1.744,0.72,0.0\n'
            '0.13,1.74,0.7,0.0\n'
            '0.132,1.736,0.68,0.0\n'
            '0.134,1.732,0.66,0.0\n'
            '0.136,1.728,0.64,0.0\n'
            '0.138,1.724,0.62,0.0\n'
            '0.14,1.72,0.6,0.0\n'
            '0.142,1.716,0.58,0.0\n'
            '0.144,1.712,0.56,0.0\n'
            '0.146,1.708,0.54,0.0\n'
            '0.148,1.704,0.52,0.0\n'
            '0.15,1.7,0.5,0.0\n'
            '0.152,1.696,0.48,0.0\n'
            '0.154,1.692,0.46,0.0\n'
            '0.156,1.688,0.44,0.0\n'
            '0.158,1.684,0.42,0.0\n'
            '0.16,1.68,0.4,0.0\n'
            '0.162,1.676,0.38,0.0\n'
            '0.164,1.672,0.36,0.0\n'
            '0.166,1.668,0.34,0.0\n'
            '0.168,1.664,0.32,0.0\n'
            '0.17,1.66,0.3,0.0\n'
            '0.172,1.656,0.28,0.0\n'
            '0.174,1.652,0.26,0.0\n'
            '0.176,1.648,0.24,0.0\n'
            '0.178,1.644,0.22,0.0\n'
            '0.18,1.64,0.2,0.0\n'
            '0.182,1.62,0.18,0.0\n'
            '0.184,1.44,0.16,0.0\n'
            '0.186,1.26,0.14,0.0\n'
            '0.188,1.08,0.12,0.0\n'
            '0.19,0.9,0.1,0.0\n'
            '0.192,0.72,0.08,0.0\n'
            '0.194,0.54,0.06,0.0\n'
            '0.196,0.36,0.04,0.0\n'
            '0.198,0.18,0.02,0.0\n'
            '0.2,0.0,0.0,0.0\n'
        ),
    ),
    'dmt_K10_svg': (
        ['dmt', '--K', '10', '--grid', '101'],
        'dmt_K10.svg',
        (
            '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" viewBox="0 0 640 480">\n'
            '<!-- wstsim 0.1.0 | config: {"K": 10, "command": "dmt", "grid": 101} -->\n'
            '<rect width="640" height="480" fill="white"/>\n'
            '<line x1="64" y1="432" x2="624" y2="432" stroke="black"/>\n'
            '<line x1="64" y1="20" x2="64" y2="432" stroke="black"/>\n'
            '<line x1="64.00" y1="432" x2="64.00" y2="437" stroke="black"/>\n'
            '<text x="64.00" y="452" font-size="12" text-anchor="middle">0</text>\n'
            '<line x1="59" y1="432.00" x2="64" y2="432.00" stroke="black"/>\n'
            '<text x="55" y="436.00" font-size="12" text-anchor="end">0</text>\n'
            '<line x1="176.00" y1="432" x2="176.00" y2="437" stroke="black"/>\n'
            '<text x="176.00" y="452" font-size="12" text-anchor="middle">0.04</text>\n'
            '<line x1="59" y1="349.60" x2="64" y2="349.60" stroke="black"/>\n'
            '<text x="55" y="353.60" font-size="12" text-anchor="end">0.4</text>\n'
            '<line x1="288.00" y1="432" x2="288.00" y2="437" stroke="black"/>\n'
            '<text x="288.00" y="452" font-size="12" text-anchor="middle">0.08</text>\n'
            '<line x1="59" y1="267.20" x2="64" y2="267.20" stroke="black"/>\n'
            '<text x="55" y="271.20" font-size="12" text-anchor="end">0.8</text>\n'
            '<line x1="400.00" y1="432" x2="400.00" y2="437" stroke="black"/>\n'
            '<text x="400.00" y="452" font-size="12" text-anchor="middle">0.12</text>\n'
            '<line x1="59" y1="184.80" x2="64" y2="184.80" stroke="black"/>\n'
            '<text x="55" y="188.80" font-size="12" text-anchor="end">1.2</text>\n'
            '<line x1="512.00" y1="432" x2="512.00" y2="437" stroke="black"/>\n'
            '<text x="512.00" y="452" font-size="12" text-anchor="middle">0.16</text>\n'
            '<line x1="59" y1="102.40" x2="64" y2="102.40" stroke="black"/>\n'
            '<text x="55" y="106.40" font-size="12" text-anchor="end">1.6</text>\n'
            '<line x1="624.00" y1="432" x2="624.00" y2="437" stroke="black"/>\n'
            '<text x="624.00" y="452" font-size="12" text-anchor="middle">0.2</text>\n'
            '<line x1="59" y1="20.00" x2="64" y2="20.00" stroke="black"/>\n'
            '<text x="55" y="24.00" font-size="12" text-anchor="end">2</text>\n'
            '<text x="344.00" y="470" font-size="14" text-anchor="middle">r</text>\n'
            '<text x="18" y="226.00" font-size="14" text-anchor="middle" transform="rotate(-90 18 226.00)">d('
            'r)</text>\n'
            '<polyline points="64.00,20.00 69.60,20.82 75.20,21.65 80.80,22.47 86.40,23.30 92.00,24.12 97.60,'
            '24.94 103.20,25.77 108.80,26.59 114.40,27.42 120.00,28.24 125.60,29.06 131.20,29.89 136.80,30.71'
            ' 142.40,31.54 148.00,32.36 153.60,33.18 159.20,34.01 164.80,34.83 170.40,35.66 176.00,36.48 181.'
            '60,37.30 187.20,38.13 192.80,38.95 198.40,39.78 204.00,40.60 209.60,41.42 215.20,42.25 220.80,43'
            '.07 226.40,43.90 232.00,44.72 237.60,45.54 243.20,46.37 248.80,47.19 254.40,48.02 260.00,48.84 2'
            '65.60,49.66 271.20,50.49 276.80,51.31 282.40,52.14 288.00,52.96 293.60,53.78 299.20,54.61 304.80'
            ',55.43 310.40,56.26 316.00,57.08 321.60,57.90 327.20,58.73 332.80,59.55 338.40,60.38 344.00,61.2'
            '0 349.60,62.02 355.20,62.85 360.80,63.67 366.40,64.50 372.00,65.32 377.60,66.14 383.20,66.97 388'
            '.80,67.79 394.40,68.62 400.00,69.44 405.60,70.26 411.20,71.09 416.80,71.91 422.40,72.74 428.00,7'
            '3.56 433.60,74.38 439.20,75.21 444.80,76.03 450.40,76.86 456.00,77.68 461.60,78.50 467.20,79.33 '
            '472.80,80.15 478.40,80.98 484.00,81.80 489.60,82.62 495.20,83.45 500.80,84.27 506.40,85.10 512.0'
            '0,85.92 517.60,86.74 523.20,87.57 528.80,88.39 534.40,89.22 540.00,90.04 545.60,90.86 551.20,91.'
            '69 556.80,92.51 562.40,93.34 568.00,94.16 573.60,98.28 579.20,135.36 584.80,172.44 590.40,209.52'
            ' 596.00,246.60 601.60,283.68 607.20,320.76 612.80,357.84 618.40,394.92 624.00,432.00" fill="none'
            '" stroke="#1f77b4" stroke-width="2"/>\n'
            '<line x1="474" y1="38" x2="504" y2="38" stroke="#1f77b4" stroke-width="2"/>\n'
            '<text x="510" y="42" font-size="12">optimal MAC</text>\n'
            '<polyline points="64.00,20.00 69.60,24.12 75.20,28.24 80.80,32.36 86.40,36.48 92.00,40.60 97.60,'
            '44.72 103.20,48.84 108.80,52.96 114.40,57.08 120.00,61.20 125.60,65.32 131.20,69.44 136.80,73.56'
            ' 142.40,77.68 148.00,81.80 153.60,85.92 159.20,90.04 164.80,94.16 170.40,98.28 176.00,102.40 181'
            '.60,106.52 187.20,110.64 192.80,114.76 198.40,118.88 204.00,123.00 209.60,127.12 215.20,131.24 2'
            '20.80,135.36 226.40,139.48 232.00,143.60 237.60,147.72 243.20,151.84 248.80,155.96 254.40,160.08'
            ' 260.00,164.20 265.60,168.32 271.20,172.44 276.80,176.56 282.40,180.68 288.00,184.80 293.60,188.'
            '92 299.20,193.04 304.80,197.16 310.40,201.28 316.00,205.40 321.60,209.52 327.20,213.64 332.80,21'
            '7.76 338.40,221.88 344.00,226.00 349.60,230.12 355.20,234.24 360.80,238.36 366.40,242.48 372.00,'
            '246.60 377.60,250.72 383.20,254.84 388.80,258.96 394.40,263.08 400.00,267.20 405.60,271.32 411.2'
            '0,275.44 416.80,279.56 422.40,283.68 428.00,287.80 433.60,291.92 439.20,296.04 444.80,300.16 450'
            '.40,304.28 456.00,308.40 461.60,312.52 467.20,316.64 472.80,320.76 478.40,324.88 484.00,329.00 4'
            '89.60,333.12 495.20,337.24 500.80,341.36 506.40,345.48 512.00,349.60 517.60,353.72 523.20,357.84'
            ' 528.80,361.96 534.40,366.08 540.00,370.20 545.60,374.32 551.20,378.44 556.80,382.56 562.40,386.'
            '68 568.00,390.80 573.60,394.92 579.20,399.04 584.80,403.16 590.40,407.28 596.00,411.40 601.60,41'
            '5.52 607.20,419.64 612.80,423.76 618.40,427.88 624.00,432.00" fill="none" stroke="#d62728" strok'
            'e-width="2"/>\n'
            '<line x1="474" y1="56" x2="504" y2="56" stroke="#d62728" stroke-width="2"/>\n'
            '<text x="510" y="60" font-size="12">pair scheme</text>\n'
            '<polyline points="64.00,20.00 69.60,28.24 75.20,36.48 80.80,44.72 86.40,52.96 92.00,61.20 97.60,'
            '69.44 103.20,77.68 108.80,85.92 114.40,94.16 120.00,102.40 125.60,110.64 131.20,118.88 136.80,12'
            '7.12 142.40,135.36 148.00,143.60 153.60,151.84 159.20,160.08 164.80,168.32 170.40,176.56 176.00,'
            '184.80 181.60,193.04 187.20,201.28 192.80,209.52 198.40,217.76 204.00,226.00 209.60,234.24 215.2'
            '0,242.48 220.80,250.72 226.40,258.96 232.00,267.20 237.60,275.44 243.20,283.68 248.80,291.92 254'
            '.40,300.16 260.00,308.40 265.60,316.64 271.20,324.88 276.80,333.12 282.40,341.36 288.00,349.60 2'
            '93.60,357.84 299.20,366.08 304.80,374.32 310.40,382.56 316.00,390.80 321.60,399.04 327.20,407.28'
            ' 332.80,415.52 338.40,423.76 344.00,432.00 349.60,432.00 355.20,432.00 360.80,432.00 366.40,432.'
            '00 372.00,432.00 377.60,432.00 383.20,432.00 388.80,432.00 394.40,432.00 400.00,432.00 405.60,43'
            '2.00 411.20,432.00 416.80,432.00 422.40,432.00 428.00,432.00 433.60,432.00 439.20,432.00 444.80,'
            '432.00 450.40,432.00 456.00,432.00 461.60,432.00 467.20,432.00 472.80,432.00 478.40,432.00 484.0'
            '0,432.00 489.60,432.00 495.20,432.00 500.80,432.00 506.40,432.00 512.00,432.00 517.60,432.00 523'
            '.20,432.00 528.80,432.00 534.40,432.00 540.00,432.00 545.60,432.00 551.20,432.00 556.80,432.00 5'
            '62.40,432.00 568.00,432.00 573.60,432.00 579.20,432.00 584.80,432.00 590.40,432.00 596.00,432.00'
            ' 601.60,432.00 607.20,432.00 612.80,432.00 618.40,432.00 624.00,432.00" fill="none" stroke="#2ca'
            '02c" stroke-width="2"/>\n'
            '<line x1="474" y1="74" x2="504" y2="74" stroke="#2ca02c" stroke-width="2"/>\n'
            '<text x="510" y="78" font-size="12">TDMA</text>\n'
            '</svg>\n'
        ),
    ),
    'dmt_K3': (
        ['dmt', '--K', '3', '--grid', '25'],
        'dmt_K3.csv',
        (
            '# wstsim 0.1.0\n'
            '# config: {"K": 3, "command": "dmt", "grid": 25}\n'
            'r,d_optimal,d_proposed,d_tdma\n'
            '0.0,2.0,2.0,2.0\n'
            '0.027777777777777776,1.9444444444444444,1.9166666666666667,1.8333333333333333\n'
            '0.05555555555555555,1.8888888888888888,1.8333333333333333,1.6666666666666667\n'
            '0.08333333333333333,1.8333333333333333,1.75,1.5\n'
            '0.1111111111111111,1.7777777777777777,1.6666666666666667,1.3333333333333333\n'
            '0.1388888888888889,1.7222222222222223,1.5833333333333333,1.1666666666666667\n'
            '0.16666666666666666,1.6666666666666667,1.5,1.0\n'
            '0.19444444444444445,1.6111111111111112,1.4166666666666667,0.8333333333333334\n'
            '0.2222222222222222,1.5555555555555556,1.3333333333333333,0.6666666666666666\n'
            '0.25,1.5,1.25,0.5\n'
            '0.2777777777777778,1.4444444444444444,1.1666666666666667,0.3333333333333333\n'
            '0.3055555555555556,1.3888888888888888,1.0833333333333333,0.16666666666666666\n'
            '0.3333333333333333,1.3333333333333333,1.0,0.0\n'
            '0.3611111111111111,1.2777777777777777,0.9166666666666666,0.0\n'
            '0.3888888888888889,1.2222222222222223,0.8333333333333334,0.0\n'
            '0.4166666666666667,1.1666666666666667,0.75,0.0\n'
            '0.4444444444444444,1.1111111111111112,0.6666666666666666,0.0\n'
            '0.4722222222222222,1.0555555555555556,0.5833333333333334,0.0\n'
            '0.5,1.0,0.5,0.0\n'
            '0.5277777777777778,0.8333333333333334,0.4166666666666667,0.0\n'
            '0.5555555555555556,0.6666666666666666,0.3333333333333333,0.0\n'
            '0.5833333333333334,0.5,0.25,0.0\n'
            '0.6111111111111112,0.3333333333333333,0.16666666666666666,0.0\n'
            '0.6388888888888888,0.16666666666666666,0.08333333333333333,0.0\n'
            '0.6666666666666666,0.0,0.0,0.0\n'
        ),
    ),
    'simulate_tdma_m4': (
        ['simulate', '--scheme', 'tdma', '--m', '4', '--snr-grid', '10:30:10', '--trials', '40', '--seed', '11'],
        'simulate_tdma_m4_sphere.csv',
        (
            '# wstsim 0.1.0\n'
            '# config: {"command": "simulate", "decoder": "sphere", "m": 4, "scheme": "tdma", "seed": 11, "sn'
            'r_grid_db": [10.0, 20.0, 30.0], "trials": 40}\n'
            'scheme,m,decoder,snr_db,trials,session_errors,session_err_rate,visited_mean\n'
            'tdma,4,sphere,10.0,40,23,0.575,22.2\n'
            'tdma,4,sphere,20.0,40,2,0.05,12.475\n'
            'tdma,4,sphere,30.0,40,0,0.0,12.0\n'
        ),
    ),
    'repair_pair_m2_20trials': (
        ['repair', '--n', '6', '--k', '3', '--d', '5', '--fragment-bits', '24', '--decoder', 'sphere', '--snr-grid', '10:30:5', '--trials', '20', '--scheme', 'pair', '--m', '2', '--seed', '11'],
        'repair_pair.csv',
        (
            '# wstsim 0.1.0\n'
            '# config: {"command": "repair", "d": 5, "decoder": "sphere", "fragment_bits": 24, "k": 3, "m": 2, "n": 6, "noiseless": false, "scheme": "pair", "seed": 11, "snr_grid_db": [10.0, 15.0, 20.0, 25.0, 30.0], "trials": 20}\n'
            'snr_db,trials,session_err_rate,share_fail_rate,repair_fail_rate,scheme\n'
            '10.0,20,0.09166666666666666,0.25,0.05,pair\n'
            '15.0,20,0.016666666666666666,0.04,0.0,pair\n'
            '20.0,20,0.0,0.0,0.0,pair\n'
            '25.0,20,0.0,0.0,0.0,pair\n'
            '30.0,20,0.0,0.0,0.0,pair\n'
        ),
    ),
    'repair_tdma_m4_20trials': (
        ['repair', '--n', '6', '--k', '3', '--d', '5', '--fragment-bits', '24', '--decoder', 'sphere', '--snr-grid', '10:30:5', '--trials', '20', '--scheme', 'tdma', '--m', '4', '--seed', '11'],
        'repair_tdma.csv',
        (
            '# wstsim 0.1.0\n'
            '# config: {"command": "repair", "d": 5, "decoder": "sphere", "fragment_bits": 24, "k": 3, "m": 4, "n": 6, "noiseless": false, "scheme": "tdma", "seed": 11, "snr_grid_db": [10.0, 15.0, 20.0, 25.0, 30.0], "trials": 20}\n'
            'snr_db,trials,session_err_rate,share_fail_rate,repair_fail_rate,scheme\n'
            '10.0,20,0.62,0.91,1.0,tdma\n'
            '15.0,20,0.165,0.28,0.1,tdma\n'
            '20.0,20,0.055,0.11,0.0,tdma\n'
            '25.0,20,0.005,0.01,0.0,tdma\n'
            '30.0,20,0.005,0.01,0.0,tdma\n'
        ),
    ),
    'repair_pair_m2_ml': (
        ['repair', '--n', '6', '--k', '3', '--d', '5', '--fragment-bits', '24', '--decoder', 'ml', '--snr-grid', '10:30:5', '--trials', '5', '--scheme', 'pair', '--m', '2', '--seed', '11'],
        'repair_pair.csv',
        (
            '# wstsim 0.1.0\n'
            '# config: {"command": "repair", "d": 5, "decoder": "ml", "fragment_bits": 24, "k": 3, "m": 2, "n": 6, "noiseless": false, "scheme": "pair", "seed": 11, "snr_grid_db": [10.0, 15.0, 20.0, 25.0, 30.0], "trials": 5}\n'
            'snr_db,trials,session_err_rate,share_fail_rate,repair_fail_rate,scheme\n'
            '10.0,5,0.11666666666666667,0.28,0.0,pair\n'
            '15.0,5,0.03333333333333333,0.12,0.2,pair\n'
            '20.0,5,0.0,0.0,0.0,pair\n'
            '25.0,5,0.0,0.0,0.0,pair\n'
            '30.0,5,0.0,0.0,0.0,pair\n'
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_is_byte_identical(name, tmp_path):
    argv, filename, expected = GOLDEN[name]
    workers = [] if argv[0] == "dmt" else ["--workers", "1"]  # dmt runs no workers
    assert main(argv + workers + ["--out-dir", str(tmp_path)]) == 0
    got = (tmp_path / filename).read_text()
    assert got == "".join(expected), (
        f"{name} differs from the output generated with {GENERATED_WITH} "
        f"(running numpy {np.__version__})"
    )
