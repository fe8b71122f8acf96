"""Byte pins for whole runs: the sha256 of each rendered CSV, plus a digest
of the epoch summaries and the finding lines of ``fairfaucet run``, for
every committed scenario file, a WAMF and a CMF run at the benchmark
geometry with 200 users, one small run per variant with filler blocks
inside the claim rounds, and one run per variant at non-default prices.
The digests were recorded from the simulator that kept one schedule loop
per variant, so any change to the block schedule or the per-transaction
records that alters a byte fails here.  A pin may be re-recorded only by
a change that means to alter the simulated behaviour."""

import hashlib
from pathlib import Path

import pytest

from fairfaucet.cli import findings
from fairfaucet.costs import CostModel
from fairfaucet.sim import (Scenario, balances_csv, distributions_csv,
                            load_scenario, receipts_csv, run_scenario,
                            trace_csv)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# round_span > n leaves filler blocks in every round, so no-ops also fall
# inside claim rounds, where they carry the unit share in force; the None
# entries turn demand blocks into no-ops
FILLER = dict(n=3, epoch_capacity=30, epoch_span=20, round_span=5, epochs=3,
              scripted_demands=((4, None, 15), (None, 3, 8)))

# five distinct prices, so a meter that priced one counter as another
# (at the defaults a read and a heap move both cost 800) changes a cost
# column; two of the four CMF distributes exceed the budget, no other
# transaction does
PRICES = CostModel(storage_read=700, storage_write=4300, heap_move=900,
                   arithmetic_op=7, tx_base=19000, block_budget=480_000)
PRICED = dict(n=40, epoch_capacity=800, epoch_span=180, round_span=45,
              epochs=5, seed=7, cost_model=PRICES)

RUNS = {
    "wamf_benchmark_n200_seed5":
        lambda: Scenario("WAMF", 200, seed=5),
    "cmf_benchmark_n200_seed5":
        lambda: Scenario("CMF", 200, seed=5),
    "amf_filler_n3": lambda: Scenario(variant="AMF", **FILLER),
    "wamf_filler_n3": lambda: Scenario(variant="WAMF", **FILLER),
    "cmf_filler_n3": lambda: Scenario(variant="CMF", **FILLER),
    "amf_priced_n40": lambda: Scenario(variant="AMF", **PRICED),
    "wamf_priced_n40": lambda: Scenario(variant="WAMF", **PRICED),
    "cmf_priced_n40": lambda: Scenario(variant="CMF", **PRICED),
}

# name -> sha256 of trace.csv, receipts.csv, balances.csv,
# distributions.csv and epochs_text(result)
DIGESTS = {
    "amf_n10": (
        "223c9dc931fd53c1545039e655618ccb51413ba5c814fb88994cc61ec5d779db",
        "128a7a3b7f85a351821386a5bb45b9ae0cfaa3cbe3b606f4b84d10e31272eb85",
        "df090bb09ca125097e7e43430cfff1308579387bb92a3ba2b34d0837e26683d5",
        "977d15eaccb31ac35b29a96c72873a9227369b49fab662fe98657051dbe442e2",
        "58b35b5206fec9cc620a67325d10a970fcde7a911cbd640c6d2007c35f0939a9"),
    "amf_worked_example": (
        "dd423310be343d73a05a3121d3ace86b4e259268d927e5961bcf49c267f4b0b1",
        "cf76b52a6426de66aa518bec9ef865ee1d4e51026e04835471c64d64cfb42086",
        "8fd8c45319428001d2b950398e5b05128055ea8b532ead3f45257183f80c5a10",
        "977d15eaccb31ac35b29a96c72873a9227369b49fab662fe98657051dbe442e2",
        "8eefca8af29c55a8e582882e1d5c723c10485710be7f28b28554ffd044af2670"),
    "cmf_n10": (
        "c2cfb6be0bda0c6ce21a1b8958822172332a3cde0cb5355adc55c4be335ad590",
        "cac030b87ab7b0dc94fb9bc302ff187012b66e073714d7fc06bcec03f1e3f678",
        "df090bb09ca125097e7e43430cfff1308579387bb92a3ba2b34d0837e26683d5",
        "e5cecede3abefaa107bf677122918e60eb32decaaafe76d4e1a34e1fb29d4214",
        "58b35b5206fec9cc620a67325d10a970fcde7a911cbd640c6d2007c35f0939a9"),
    "cmf_worked_example": (
        "a13febe4e9daeed6d911fa39a1cac7fa6b456f1b2bd469ae33e9fa64f7e153d7",
        "4c7931b5ccee8d24d5b4edc60f3a217514683cf1fd70684042a7b3fdc209f000",
        "3aaabefecb8ca990a8baede40a435a62596625d86f883ccda3c190bf3a31849b",
        "f858fad4f72a2768a1e3f07c353b381093e20eb21723d2a7e8fc8f3915f0a9d4",
        "c7bb82874474f48948d0e76bdd1c4c56f0068be5240174bec78bac4b9cdbc1a4"),
    "depletion_fcfs": (
        "a21e67db1ef5c54f8d83b3f27b80a7dc1a509b5b62c781385ef2a8807fd660c0",
        "6a505ef32b649736df6be548500ca57a69a187a915b3cee757b045835d198391",
        "307961c03af28c1f36eb5574b96709e0d510941c6fbcae61bed7c677866749ae",
        "977d15eaccb31ac35b29a96c72873a9227369b49fab662fe98657051dbe442e2",
        "957a9a081ff44819a59e5af556e65f46d5126f3da341dc63e5e3eb3226caafe5"),
    "rounds_exhausted": (
        "062a51c77af703ab79c97d859be4a01a4b2dd8c03f683ff002866101ff104e7a",
        "6e540009b53ee03fda9b10afce4388ad47107a5d6ea67bb2fbfa73d65a1921e0",
        "1d8960684039e50575344405269df9926a649a8fc6533cdb80a04d992dd39dc7",
        "977d15eaccb31ac35b29a96c72873a9227369b49fab662fe98657051dbe442e2",
        "355eda9e142df623f28902e18445bcd5e3e6a2205f3937a6eb590f5dca0e0fd8"),
    "wamf_n10": (
        "6f6cbd69ef61069d57cf92789b0cb573e5cfb82a4531c74b72ef239d4240e13c",
        "31c989653288f31e22eedf5cf78fe60788a57e4b220af1bafa43bd7ba8470aad",
        "df090bb09ca125097e7e43430cfff1308579387bb92a3ba2b34d0837e26683d5",
        "977d15eaccb31ac35b29a96c72873a9227369b49fab662fe98657051dbe442e2",
        "7e624bf391ddee288c8f5bd3a6bb8086a298bc78361bc5e5a6227231b27a17af"),
    "wamf_benchmark_n200_seed5": (
        "17b5d81762e786d14a5430d596590112499864bd5475377d187ca44dc9857962",
        "df29907129a8bc4d1ea0ec021065ed423d8d9fa8887c837a0a7e860a31eefec8",
        "03af05b4759750a24ca5539ecdd96f6b252e6e826f271e9407a791e8b79c1075",
        "977d15eaccb31ac35b29a96c72873a9227369b49fab662fe98657051dbe442e2",
        "87324904c0addc4eb236a983097063364d6f249ffbb3f0fd3516ad68944be507"),
    "cmf_benchmark_n200_seed5": (
        "5eca4f6c7fa65c8a1d45fc8d5f71a65241cf33a79a45784a06bbf9cdeef219cf",
        "c5ce3dcbe036eed9558950eff622cfea9612ace29421af13f56fd2fcc9c38a1e",
        "36f5d382c26452c07a38e36910167c3b22e8d4c0d81a427a8f68aa0c988ffac2",
        "d2f002eba4fd5be0de13b00b834978040da31c3a48892f236683f97be2742bc9",
        "e10da8f79cc7e6ab4d956f7577e7e68b5eb650c1c22da8851270da1729931c8e"),
    "amf_filler_n3": (
        "b2aea9a2a39d2caccda39aa38600672d72b93c6e0ce423129e0bb9a19917bcd7",
        "80ad3591ab387d50e9af098d8c2a846c31852bc0bedf62c885d18028c995086b",
        "1425f39fd096093513695e5b85cf468a9635c4edce967f8a17d2ce191a80cdac",
        "977d15eaccb31ac35b29a96c72873a9227369b49fab662fe98657051dbe442e2",
        "c64f9a181b4d896b3135daff6f9394963cc1d43382e2b903774aba0351e35064"),
    "wamf_filler_n3": (
        "60ca405276febcb8d085bf7c89abd3f66d9e2fe45db17b64435d765d332df967",
        "be9ff6f93a5dcfd61769fc47900031c1daff19512c50e30449b35aa11ef6cc2c",
        "1425f39fd096093513695e5b85cf468a9635c4edce967f8a17d2ce191a80cdac",
        "977d15eaccb31ac35b29a96c72873a9227369b49fab662fe98657051dbe442e2",
        "f122817838d8a8cff2e07080a58a5334836bb472cf7f1eee8bfff25621a69435"),
    "cmf_filler_n3": (
        "699ee55d492dd8aef11b9876e8ac4110f117d7276701009a002201b170bdec1d",
        "ef14a60b724c7a08644940be3af141df10c2b7db844aa49b4533c5c0473ce752",
        "1425f39fd096093513695e5b85cf468a9635c4edce967f8a17d2ce191a80cdac",
        "6ef19bacccaf50f73a56e85f5d8eb72227aba707f41ec09cdce1f2aa7d95b711",
        "c64f9a181b4d896b3135daff6f9394963cc1d43382e2b903774aba0351e35064"),
    "amf_priced_n40": (
        "39a6fd23ec120cd326b287cb2a988b79eac99da8317e2333e33953a8a97e2e25",
        "adfd1e6df9c1c754c2b4be485d895b9ff1cee3fc03aa19b08964d301eff88d69",
        "39d7d340644f15e2c91e3d685eebf2389cf89182e471ccf9bf4efacc4ae040ee",
        "977d15eaccb31ac35b29a96c72873a9227369b49fab662fe98657051dbe442e2",
        "f730f9adf6e6a7119ed4512ee6f652a96b55d82a176d61f1af3969ec91077664"),
    "wamf_priced_n40": (
        "baaddd08d9bd90568ab1c22caf7f5ba89a9ef8260ddfa6ccb032ba69e1f80345",
        "e33192256b643b66373ccec04b37809b4a853b7fe21d43f283239dc3f9e6ef8b",
        "39d7d340644f15e2c91e3d685eebf2389cf89182e471ccf9bf4efacc4ae040ee",
        "977d15eaccb31ac35b29a96c72873a9227369b49fab662fe98657051dbe442e2",
        "9ba3ae50de91dccabab7ec66b2df4bd867dc39f3b4b7d009c04383608333524b"),
    "cmf_priced_n40": (
        "a58a42a2cf5ae5525c27871b00d482431d89e48be412c5c93af83c038bcae5a5",
        "5c6297fcc0b45a6f495ad591839b969f52e3f777cc792bb32b15dcbe101f23ff",
        "39d7d340644f15e2c91e3d685eebf2389cf89182e471ccf9bf4efacc4ae040ee",
        "10b24726e2ba971c91602f0a914013b7ef2f51a82dce2bcf0accd509202c4525",
        "f730f9adf6e6a7119ed4512ee6f652a96b55d82a176d61f1af3969ec91077664"),
}


def epochs_text(result) -> str:
    """The epoch summaries, the finding lines, final capacity and
    injected total as text, one summary per line, in a fixed order."""
    lines = [f"{s.epoch} {sorted(s.demands.items())} "
             f"{sorted((s.weights or dict.fromkeys(s.demands, 1)).items())} "
             f"{s.capacity_start} "
             f"{sorted(s.granted.items())} {s.capacity_end}"
             for s in result.epoch_summaries]
    lines += findings(result)
    lines.append(f"{result.final_capacity} {result.injected}")
    return "\n".join(lines)


def test_every_scenario_file_is_pinned():
    files = {p.stem for p in SCENARIOS.glob("*.json")}
    assert files == set(DIGESTS) - set(RUNS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_run_bytes_are_pinned(name):
    if name in RUNS:
        sc = RUNS[name]()
    else:
        sc = load_scenario(SCENARIOS / f"{name}.json")
    result = run_scenario(sc)
    texts = [render(result) for render in (trace_csv, receipts_csv,
                                           balances_csv, distributions_csv)]
    texts.append(epochs_text(result))
    got = tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts)
    assert got == DIGESTS[name]
