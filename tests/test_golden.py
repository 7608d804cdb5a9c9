"""Golden outputs: the bytes of a fixed set of runs, ``verify`` reports and
grid-reference optima.

Every study is run in process through ``main`` and each CSV, and each
``verify`` report, is reduced to its SHA-256 digest and compared with the
digest stored below; a mismatch names the outputs that differ.  The digests
pin the last bit of every printed float, so they depend on the platform's
libm (they were recorded on x86-64 Linux, CPython 3.11).  A change that
moves an output on purpose updates its digest in the same change and says
so in CHANGES.md.
"""
import hashlib

from complement_opt import Objective, grid_reference_maximum
from complement_opt.cli import main
from complement_opt.experiments import PRESETS, preset_config

#: ``run`` arguments of the 20 studies, each writing one CSV.
RUNS = [
    ["--experiment", experiment, "--preset", preset, "--objective", objective]
    for experiment in ("quantity-vs-n", "delta-d")
    for preset in ("strong", "weak")
    for objective in ("visibility", "predictability", "concurrence")
] + [
    ["--experiment", experiment, "--preset", preset]
    for experiment in ("uniform-sweep", "distinguishability")
    for preset in ("strong", "weak")
] + [
    ["--experiment", "table"],
    ["--experiment", "continuous-limit"],
    ["--experiment", "quantity-vs-n", "--g", "0.7", "--T", "3", "--N", "8",
     "--n-max", "8", "--objective", "visibility"],
    ["--experiment", "uniform-sweep", "--g", "0.05", "--T", "2", "--N", "200",
     "--n-max", "200", "--theta-steps", "90"],
]

#: CSV path under the output directory -> SHA-256 of its bytes.
CSV_DIGESTS = {
    "continuous-limit/continuous-limit.csv": "ae8fbfb30911fd10e292716cd5cfdc2deb4cc1ee35b1499e1b9dfc9b532cf8b3",
    "delta-d/strong-concurrence.csv": "6fe53b48858382179cc0ba6d5c8a10eabb6b99cb61ece19cd688900c2b69e7cd",
    "delta-d/strong-predictability.csv": "970df9cb0f8e4720fd280368148c68656aad703403a78ed9040ca0effcfa737f",
    "delta-d/strong-visibility.csv": "7fa796ec15c006e00f53609a17a9e132b2f02dca6e63a2635dfc88a4e14f3536",
    "delta-d/weak-concurrence.csv": "88109b21b523a48404432b4a386599c3ac5509abedfa8f62b7aa0a2cd237cdc5",
    "delta-d/weak-predictability.csv": "543006dc84eefaf759ef575b587301c8611420c3cfc07cebafdac785ff5e807a",
    "delta-d/weak-visibility.csv": "c3b43fff5f61c0a9f339080400d7f79d057be42ac2f2a9cbb0ea0bdd223da81f",
    "distinguishability/strong.csv": "7265dfc27f8bb78a4ee4b1abc82380bcc648bcc0ee28492372fc6bdd31379a3c",
    "distinguishability/weak.csv": "7a87a3c172f9bab5b1216a588f8f4e63725239985afc9cb7c504a7b844de188a",
    "quantity-vs-n/custom-visibility.csv": "fad30ed1162b73c3f79dc58c4cbf528047c91eb7b449b510bf6658a8a4896c96",
    "quantity-vs-n/strong-concurrence.csv": "4fe3128718c5b9821a5057eb3993541c114e7f8058d8585f5597e4c4c56875d1",
    "quantity-vs-n/strong-predictability.csv": "7c092affa13643d51b6787f81c1501687b485ee68b06dbcc270ac8d4dc105315",
    "quantity-vs-n/strong-visibility.csv": "d1449cd54bc5eda59cd0905e915b160d2553b9d0fc86a0ca386412bb6c9c89a6",
    "quantity-vs-n/weak-concurrence.csv": "e7bb614c4b193130944a3ada15e4a5a2e6606d651223c2d124b077563bcf1a67",
    "quantity-vs-n/weak-predictability.csv": "1baa539fbfe2f63a01882060667c5bddb379b444be840e5b92abca49e50e2152",
    "quantity-vs-n/weak-visibility.csv": "d23a99beec7ebdd1c4b974a10fe526a30c632d6c16179653b5549c299cde3f6a",
    "table/table.csv": "60033e9791e0b983b9ccf796df2f244c4de2ecca7e612f8226a2bce45f582476",
    "uniform-sweep/custom.csv": "dbaba4ea987f2b5bb74ff2920cc0699fad762eaf9ac89d513f8cc722f17675b2",
    "uniform-sweep/strong.csv": "f0bbfe953b63547cbdeb73e2df98201af8276715c2b3bcfdc1c73b583bc5266f",
    "uniform-sweep/weak.csv": "5a1153f0ae1328d0f5c0beac37dd1d3de1dee3e1559472dd37ebfc48257e029c",
}

#: verify arguments -> (exit code, SHA-256 of the printed report).
VERIFY_REPORTS = {
    "": (0, "21b6c3ace692206b5e1672667a4ae6fe8e871f2456d093947897d54f1280d295"),
    "--samples 1000 --seed 7": (0, "8509ad644c5ffafc6f59bbfca7be0ae606ca0f3fda6348541421744c6ce05ad2"),
    "--perturb": (1, "34499d52625d00097d1dcff63f8ae0f3c3a0ad75f06eb01214064377115ef442"),
}

#: SHA-256 of the repr of the list of every (value, angles) the grid reference
#: returns, for each preset, n in (0, 1, 2) and objective in that order.  The
#: printed ``verify`` gap has 4 digits, so only this pins the reference's last
#: bit.  It was recorded when each objective still ran its own grid pass, so it
#: also pins that sharing one pass changed no bit.
REFERENCE_DIGEST = "ef28ce853b38c571ed6f1f6eb1c8b862ca111e32b21e3286e32e5e2ad35ad195"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def differing(actual: dict, stored: dict) -> list:
    return sorted(key for key in actual.keys() | stored.keys() if actual.get(key) != stored.get(key))


def test_csvs_match_stored_digests(tmp_path):
    for argv in RUNS:
        assert main(["run", *argv, "--out", str(tmp_path)]) == 0, argv
    actual = {
        path.relative_to(tmp_path).as_posix(): digest(path.read_bytes())
        for path in tmp_path.rglob("*.csv")
    }
    assert len(actual) == len(RUNS) == 20
    changed = differing(actual, CSV_DIGESTS)
    assert not changed, f"CSVs that differ from the stored digests: {changed}"


def test_verify_reports_match_stored_digests(capsys):
    actual = {}
    for args in VERIFY_REPORTS:
        code = main(["verify", *args.split()])
        actual[args] = (code, digest(capsys.readouterr().out.encode()))
    changed = differing(actual, VERIFY_REPORTS)
    assert not changed, f"verify reports that differ from the stored digests: {changed}"


def test_grid_reference_matches_stored_digest():
    optima = [
        grid_reference_maximum(preset_config(preset), n)[objective]
        for preset in PRESETS
        for n in (0, 1, 2)
        for objective in Objective
    ]
    assert len(optima) == 18
    assert digest(repr(optima).encode()) == REFERENCE_DIGEST
