"""Golden artifact bytes: the sha256 of small CLI outputs, pinned.

Each case runs one command of `.github/write-artifacts.sh`, with the same
argv, and compares its output's sha256 with the committed table, so a
change that moves these bytes fails here without a second checkout to diff
against.  The cases are every dataset and the oracle `eval` (both tie
modes), `sparsify`, `density-grid`, `stability` and `bias` outputs.  They
kept their bytes with numpy dispatching as on an AVX2 machine
(NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4") and with
OpenBLAS's Haswell kernels (OPENBLAS_CORETYPE=Haswell).  Trained models,
ensemble outputs and the larger multimodal grids are left out: their bytes
follow the CPU class.  A numpy or libm version can still move these, so a
mismatch names numpy's version, its SIMD dispatch and the machine.
"""
import hashlib
import platform

import numpy as np
import pytest

from uqeval.cli import run

KINDS = ("homoscedastic", "heteroscedastic", "multimodal", "epistemic")


def _cases():
    for kind in KINDS:
        for split in ("train", "test"):
            yield (f"generate-{kind}-{split}.csv",
                   ["generate", "--dataset", kind, "--split", split, "--n", "4099"])
        for tie in ("paper", "average"):
            yield (f"eval-{kind}-{tie}.csv",
                   ["eval", "--dataset", kind, "--n", "4099", "--tie-mode", tie])
        yield f"sparsify-{kind}.csv", ["sparsify", "--dataset", kind, "--n", "4099"]
        yield (f"density-grid-{kind}.csv",
               ["density-grid", "--dataset", kind, "--nx", "64", "--ny", "48"])
    yield "stability.csv", ["stability"]
    yield "bias-1.csv", ["bias", "--replicates", "1"]


CASES = dict(_cases())

GOLDEN_SHA256 = {
    "generate-homoscedastic-train.csv": "5a4de819271686f38202436788c746a5eaaec6ab0382097aa46120f2355a9073",
    "generate-homoscedastic-test.csv": "5b5f42c513524fd4bebfb54786ccf35eecabbc7b70a7a34991db0d4408464549",
    "generate-heteroscedastic-train.csv": "784d913e4eeffa3f4d82daba0a240425317c939e0d749174a10c2278629c85c0",
    "generate-heteroscedastic-test.csv": "ceb02ea3fd8411418df4c483b13aa313292cfff773aab51e7d84543d7d6ae6a1",
    "generate-multimodal-train.csv": "dab02b15a71cf0128f391cafcb4ea9c06fc104fd852a8d402fe2231d059cbdb5",
    "generate-multimodal-test.csv": "2ac9fc297e3da74e99e8b36946de9b63ce1a97d6986597c58e76f04631c99bcc",
    "generate-epistemic-train.csv": "918af58602793f44321ba2dd9a657fe51f368e706aa496081f3948635c21fabd",
    "generate-epistemic-test.csv": "3e83608e4a88e28f9d95282da81d021cf201bccd8262ee397fb302105ce4f375",
    # an oracle's variances are all tied (Spearman is nan) or all distinct, so
    # the two tie modes give one report
    "eval-homoscedastic-paper.csv": "3e233a9364894d97dbee9a314fb661801b5d964ed45410be7d39ccc5a5410776",
    "eval-homoscedastic-average.csv": "3e233a9364894d97dbee9a314fb661801b5d964ed45410be7d39ccc5a5410776",
    "eval-heteroscedastic-paper.csv": "a472cd5b8468a555aec2d12baba745faccad13c47dc46b7cbe692112d554a303",
    "eval-heteroscedastic-average.csv": "a472cd5b8468a555aec2d12baba745faccad13c47dc46b7cbe692112d554a303",
    "eval-multimodal-paper.csv": "b5d19cb1472c5d9699790367cca5f0c80282f71473da4ec55955901f73c9bc6d",
    "eval-multimodal-average.csv": "b5d19cb1472c5d9699790367cca5f0c80282f71473da4ec55955901f73c9bc6d",
    "eval-epistemic-paper.csv": "d55a60756baeebf3442ba2fb8cc2d8ef2fad463875c3eec3e075c3faa1dc8cf1",
    "eval-epistemic-average.csv": "d55a60756baeebf3442ba2fb8cc2d8ef2fad463875c3eec3e075c3faa1dc8cf1",
    "sparsify-homoscedastic.csv": "d7d4fedcadba54efccff5d369f24b4cd5535544a56fb4b2054dc02541c0dfccf",
    "sparsify-heteroscedastic.csv": "2621b05991be1e936edd2d531d77bde09e562ab6824c1277fbe693e4aa2be9e7",
    "sparsify-multimodal.csv": "aa188de7f50565229242199a1fe65bc0accfed16f2d68e5093589fa5b74ce504",
    "sparsify-epistemic.csv": "fcddd12fc6c04c8f53917bd34e2def141f483fb313d217d1bfde1ba9a0a89618",
    "density-grid-homoscedastic.csv": "9ef7589a3c963b85d24ca3a9288dc7a047a5d3077d8f6a410ce4da5816de4a94",
    "density-grid-heteroscedastic.csv": "fcbcede2296c9024e511a4e575faf23c5034c84ac7358bdd7f13eacebeeb67e5",
    "density-grid-multimodal.csv": "7617beaabf9212c9e721e565b4edacf278116b082f29e8dec0f25dff64e65dca",
    "density-grid-epistemic.csv": "cd7717e92dc18bf30e40f0e583d7d7b8c952c65e1295a254ad583c237f7ce018",
    "stability.csv": "3cc8f376b218ab577c80debedb3a65ce100a05f7ba79c64788d3bc5c298f5035",
    "bias-1.csv": "577cee266f4d239ab3eed96b78b036b7c7461afa4a7c7bf2ad394bc85a84443f",
}


def _environment() -> str:
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found")
    return f"numpy {np.__version__}, SIMD dispatch {simd}, machine {platform.machine()}"


def test_the_table_pins_every_case() -> None:
    assert len(CASES) == 26 and sorted(GOLDEN_SHA256) == sorted(CASES)


# the homoscedastic and epistemic oracles report one variance for every row
@pytest.mark.filterwarnings("ignore:spearman undefined:RuntimeWarning")
@pytest.mark.parametrize("name", CASES)
def test_artifact_bytes_match_the_golden_table(tmp_path, monkeypatch, name) -> None:
    monkeypatch.chdir(tmp_path)  # relative --out, as the script runs them
    assert run([*CASES[name], "--out", name]) == 0
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name], (
        f"{name}: sha256 {digest}, committed {GOLDEN_SHA256[name]}; under {_environment()}"
    )
