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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_is_byte_identical(name, tmp_path):
    argv, filename, expected = GOLDEN[name]
    assert main(argv + ["--workers", "1", "--out-dir", str(tmp_path)]) == 0
    got = (tmp_path / filename).read_text()
    assert got == "".join(expected), (
        f"{name} differs from the output generated with {GENERATED_WITH} "
        f"(running numpy {np.__version__})"
    )
