"""Byte-level pins: the sha256 of every report each analysis command writes.

Each command runs on both bundled datasets, with the default config and with
`fraction=0.5`, and every file it writes is compared against a recorded
digest, together with its exit code (and, for `validate`, which writes no
file, its stdout). The bundled windows are short, so each command also runs
on a long, sparse dataset that `synth` writes from a fixed seed: the mix of
the benchmark's sparse-52k workload at 400 papers, published 1900-1960 and
observed to 2015, whose yearly citations are mostly zero. That case pins the
files `synth` writes as well. After an intended change of output, print the
new tables with `PYTHONPATH=src python tests/test_golden.py` and review the
diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from slumber import cli

DATA = Path(__file__).resolve().parent.parent / "data"
COMMANDS = (
    "profile",
    "cohort",
    "patents",
    "table1",
    "lag-trend",
    "interactions",
    "aagr",
    "flag-contexts",
    "validate",
)
CONFIGS = {"default": "", "half": "fraction=0.5\n"}

# One file for both synth and the analysis commands: each reads the keys it knows.
SPARSE_CONFIG = """\
n_papers=400
share_delayed=0.1
share_instant=0.9
share_linear=0.0
share_noise=0.0
pub_from=1900
pub_to=1960
link_density=0.2
fraction=0.05
"""
SPARSE_SEED = 11


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(command: str, args: list[str], config: str, work: Path) -> tuple[int, dict[str, str]]:
    """Exit code and {file name: sha256} of one command run in a fresh directory."""
    work.mkdir(parents=True)
    cfg = work / "run.cfg"
    cfg.write_text(config)
    out = work / "out"
    argv = [command, *args, "--out", str(out), "--config", str(cfg)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    digests = {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())} if out.exists() else {}
    if command == "validate":
        digests["<stdout>"] = _sha(stdout.getvalue().encode())
    return code, digests


def outputs(dataset: str, config: str, command: str, work: Path) -> tuple[int, dict[str, str]]:
    return run_command(command, ["--dataset", str(DATA / dataset)], CONFIGS[config], work)


def write_sparse_dataset(work: Path) -> tuple[int, dict[str, str]]:
    """Run synth for the sparse case; the dataset is left in work / "out"."""
    return run_command("synth", ["--seed", str(SPARSE_SEED)], SPARSE_CONFIG, work)


def sparse_outputs(dataset_dir: Path, command: str, work: Path) -> tuple[int, dict[str, str]]:
    return run_command(command, ["--dataset", str(dataset_dir)], SPARSE_CONFIG, work)


CASES = [(d, c, cmd) for d in ("demo", "table1_fixture") for c in CONFIGS for cmd in COMMANDS]

# Recorded before the table reader and writer were unified.
GOLDEN: dict[tuple[str, str, str], tuple[int, dict[str, str]]] = {
    ("demo", "default", "profile"): (
        0,
        {
            "profiles.csv": "fe7acc9fa07201c2f7d9e25f9d6bdc7285f88a09ad492998c41a754c580e9e13",
        },
    ),
    ("demo", "default", "cohort"): (
        0,
        {
            "cohort.csv": "b52947732b25cc1caa3ed0a9cc3b52c213c0c890ea5a8271ecc2eba1be5707e9",
        },
    ),
    ("demo", "default", "patents"): (
        0,
        {
            "patent_indicators.csv": "0b81fa184251207499ae795c9ac8e1f4074bb7170da7698334590eb4ade86647",
        },
    ),
    ("demo", "default", "table1"): (
        0,
        {
            "comparison.csv": "a1f44ce4e3499e69ad4226117e37b3869972665602a5db6a9a953493103c0954",
        },
    ),
    ("demo", "default", "lag-trend"): (
        0,
        {
            "lag_summary.csv": "0258da335bddd2e931a77b40c2e4ca197539f11bfe8b55353acf2221fcbfd34b",
            "lag_trend.csv": "ea39e6a514155f49afa4297fc388d38db309f17d433d7c85235d278aafef5077",
        },
    ),
    ("demo", "default", "interactions"): (
        0,
        {
            "field_distribution_dr.csv": "4267c73a445dfdf1e7d6e6f70ab385373a8f8df9619cf3d4f51cd9431a466ee1",
            "field_distribution_ir.csv": "6ee3de8ddb07da762ae3aa8bde38d707eeb596c3d79bdf481746005f871cc35b",
            "interaction_marginals_dr.csv": "51b19a1bf5c127a0d3e55692536b5c022e312ef200f5f04edce123c2570af810",
            "interaction_marginals_ir.csv": "4d12da8310230f0fb53bb0db4716740817b4ef6fb7addc817c744b6323797d65",
            "interactions_dr.csv": "0175b48907d92a301a861c288de10043b8aa95420213162f87103949557b3e71",
            "interactions_ir.csv": "b29ba38dd3cd9e09a93f82c79d4d2d9d39a0ee806c68422bb245b544578fa6da",
        },
    ),
    ("demo", "default", "aagr"): (
        0,
        {
            "aagr.csv": "f640d672548a1d110d9161c615eb2059daa09db084cf856b0a8f97c9afe62a30",
        },
    ),
    ("demo", "default", "flag-contexts"): (
        0,
        {
            "flagged_contexts.jsonl": "757ff0a277c62c63b7e17dbb8ec314761869b6246a2b14ecec0ed5cad83127df",
        },
    ),
    ("demo", "default", "validate"): (
        0,
        {
            "<stdout>": "14010cd5eacf87dd3f8533757328cbe369f0d803991ab127a7fe95dd400ce94b",
        },
    ),
    ("demo", "half", "profile"): (
        0,
        {
            "profiles.csv": "fe7acc9fa07201c2f7d9e25f9d6bdc7285f88a09ad492998c41a754c580e9e13",
        },
    ),
    ("demo", "half", "cohort"): (
        0,
        {
            "cohort.csv": "436ba3eeec0d4f8bc79ae7713bf6ba7f47c9648945da61131696fa4f2ce822e0",
        },
    ),
    ("demo", "half", "patents"): (
        0,
        {
            "patent_indicators.csv": "0b81fa184251207499ae795c9ac8e1f4074bb7170da7698334590eb4ade86647",
        },
    ),
    ("demo", "half", "table1"): (
        0,
        {
            "comparison.csv": "7435c9fdd2b3b2325b6142f90d9bdc7b885ba0e686dc37e28c2efb4fe112e6eb",
        },
    ),
    ("demo", "half", "lag-trend"): (
        0,
        {
            "lag_summary.csv": "a0ab231de2a395a04e3599a06bb3690b736dfe685cc12af701474ad8897d5103",
            "lag_trend.csv": "add1327fcd35b79ae19ac337fdb4483d627cbcafa9cb7534a5bf04a4b91aaf75",
        },
    ),
    ("demo", "half", "interactions"): (
        0,
        {
            "field_distribution_dr.csv": "83324f39b687716d076ab179bfc093e7c299b8e0fe704b29f1f92ece3d44e8b5",
            "field_distribution_ir.csv": "239fa6e7e8bcbb4a7ad407bf560ced78732ad81281759d3961193a3be24c36df",
            "interaction_marginals_dr.csv": "9f5ba4d4f8fbf65af6ff5fbaa40b8fe9a64a511c1a0d9b11795a8551bd37a215",
            "interaction_marginals_ir.csv": "69641503e4e3ce5ec4df50b8304c661e86db4f932e088e3f419881be1a1c64cb",
            "interactions_dr.csv": "e2fa7032e846aa4b91666eafdc12f8b99eac7a28584b1760e189efaa6df7ed7f",
            "interactions_ir.csv": "bb90199a576e8bfc4380a5ff723a961998d2bbfc5df8860c389b522e2195d93c",
        },
    ),
    ("demo", "half", "aagr"): (
        0,
        {
            "aagr.csv": "f640d672548a1d110d9161c615eb2059daa09db084cf856b0a8f97c9afe62a30",
        },
    ),
    ("demo", "half", "flag-contexts"): (
        0,
        {
            "flagged_contexts.jsonl": "757ff0a277c62c63b7e17dbb8ec314761869b6246a2b14ecec0ed5cad83127df",
        },
    ),
    ("demo", "half", "validate"): (
        0,
        {
            "<stdout>": "14010cd5eacf87dd3f8533757328cbe369f0d803991ab127a7fe95dd400ce94b",
        },
    ),
    ("table1_fixture", "default", "profile"): (
        0,
        {
            "profiles.csv": "2cfb27f506de9b77cf637ea48372ce18ac32c998024c5d72777233c4c351efd9",
        },
    ),
    ("table1_fixture", "default", "cohort"): (
        0,
        {
            "cohort.csv": "7f94a151aa503efd05ff758b2c47ec523da2f82e4f7587329615e56a10582a2b",
        },
    ),
    ("table1_fixture", "default", "patents"): (
        0,
        {
            "patent_indicators.csv": "23fb902a54adb93a3e3f2cbd2f5ca5d920f142dec3024d82d7fc380af8fdd68e",
        },
    ),
    ("table1_fixture", "default", "table1"): (
        0,
        {
            "comparison.csv": "7038c87f484f745e555299bea2e9d3947e9424dd33e41f591cc5dd471ecb2de7",
        },
    ),
    ("table1_fixture", "default", "lag-trend"): (
        0,
        {
            "lag_summary.csv": "0edf37834510123f58402736fba3b4f2daafcd0f604907ed8b850f5568004b73",
            "lag_trend.csv": "ea39e6a514155f49afa4297fc388d38db309f17d433d7c85235d278aafef5077",
        },
    ),
    ("table1_fixture", "default", "interactions"): (
        0,
        {
            "field_distribution_dr.csv": "388cf4e5cfa08b081f5b7f5804ddbddf9f181bdce2772b3312e1be3f86533766",
            "field_distribution_ir.csv": "70d206eeea1e3dd9ae3259be2f944c659f27ad9865089d1ae8bc1c2733721cef",
            "interaction_marginals_dr.csv": "12b3e752307bb2f5457ce20df921dabe619292b9deca637b517903cdd4f45b98",
            "interaction_marginals_ir.csv": "32c47ce9564a3ce164ed7d8935e2b12ab3c11ba09529c6b56cb23211d2a7cb4d",
            "interactions_dr.csv": "e74d97c227144d8f204999252c79ede3210ba18bf4becb1ee0ef6903f23216a9",
            "interactions_ir.csv": "4a0c71af5c428ed5e0bef6f68341a037f61433b47622ab580d63d924eaf4d92a",
        },
    ),
    ("table1_fixture", "default", "aagr"): (
        0,
        {
            "aagr.csv": "7dac020ae08ab9801bdafa69e1c3b7f4d85a9e06739307dd6dbfd79f9c842f10",
        },
    ),
    ("table1_fixture", "default", "flag-contexts"): (
        0,
        {
            "flagged_contexts.jsonl": "05323220d0f9d4f7decc40b0ba73083dff6860867a685e47ef6989dad6635d01",
        },
    ),
    ("table1_fixture", "default", "validate"): (
        0,
        {
            "<stdout>": "14010cd5eacf87dd3f8533757328cbe369f0d803991ab127a7fe95dd400ce94b",
        },
    ),
    ("table1_fixture", "half", "profile"): (
        0,
        {
            "profiles.csv": "2cfb27f506de9b77cf637ea48372ce18ac32c998024c5d72777233c4c351efd9",
        },
    ),
    ("table1_fixture", "half", "cohort"): (
        0,
        {
            "cohort.csv": "fce0b5146df4738dc11a4162508ee88ecc37e2ab24e6f3cb0319c8bd79194eb0",
        },
    ),
    ("table1_fixture", "half", "patents"): (
        0,
        {
            "patent_indicators.csv": "23fb902a54adb93a3e3f2cbd2f5ca5d920f142dec3024d82d7fc380af8fdd68e",
        },
    ),
    ("table1_fixture", "half", "table1"): (
        0,
        {
            "comparison.csv": "edbc81581398edd1cc837ace0ace63cd29c0aef66a5ce49c2e6b130738b3c0c3",
        },
    ),
    ("table1_fixture", "half", "lag-trend"): (
        0,
        {
            "lag_summary.csv": "3c217efd947e50136afea06abd8553ab1e52523e4ddb4d799474c21dfa3a35cf",
            "lag_trend.csv": "38724ecdce4667094ff792773ee473ddb362c12c71a40a1bac14a95615ef0649",
        },
    ),
    ("table1_fixture", "half", "interactions"): (
        0,
        {
            "field_distribution_dr.csv": "9709ad2f63f8b807a4a2ccaf415adfe8812b7d3f039a6656b49c0c0716ab2ba4",
            "field_distribution_ir.csv": "a8697861a146082a8831490da98ecf38582af31d04df8c22d6343a001b3b0775",
            "interaction_marginals_dr.csv": "37f1e86f2f2ff7fb3a007f3b9578a0c18b5972c75761a5c9ca8ccf3bd642702a",
            "interaction_marginals_ir.csv": "7145a80ac143e935a5648a1d3c818116ce01d2b598782937ed58f391397ea8e6",
            "interactions_dr.csv": "2b7f0179633cb5a185c0ee22d47ec94b9e47655f93d1c67bb82ba3b9a01fa51f",
            "interactions_ir.csv": "8c595fa905e2e858e8663cb33f0c4963cbee7f32fadbb24355fef85419487f01",
        },
    ),
    ("table1_fixture", "half", "aagr"): (
        0,
        {
            "aagr.csv": "7dac020ae08ab9801bdafa69e1c3b7f4d85a9e06739307dd6dbfd79f9c842f10",
        },
    ),
    ("table1_fixture", "half", "flag-contexts"): (
        0,
        {
            "flagged_contexts.jsonl": "05323220d0f9d4f7decc40b0ba73083dff6860867a685e47ef6989dad6635d01",
        },
    ),
    ("table1_fixture", "half", "validate"): (
        0,
        {
            "<stdout>": "14010cd5eacf87dd3f8533757328cbe369f0d803991ab127a7fe95dd400ce94b",
        },
    ),
}


# Recorded before citation series were stored sparse.
SPARSE_GOLDEN: dict[str, tuple[int, dict[str, str]]] = {
    "synth": (
        0,
        {
            "citations.csv": "7f315aac97b96f6eac68cfcf79d7fc5c58efe96742bbed26c7c20ae5d15ae918",
            "concordance.tsv": "b2ac4a866b9e8a2e10a7cf902359a480d03436246e38aa3483dde234250fe984",
            "contexts.jsonl": "b77384a0fcaad6ddfc7e6fe7b95a6de7ac8512502ec7247406bdf72103c67cfa",
            "links.csv": "4607cc7e0b44b8342d0758a97afa31189e653728eb6696b98592c960b7ff5e5c",
            "papers.csv": "dd0d42cded05936a5ab85f57765dcd8fd4550e0c89981ba455f706732d1ba3c2",
            "patents.csv": "45fcee9fd5c8446d26727366c34804a1514c339f0a5de5db3f858da607baece0",
        },
    ),
    "profile": (
        0,
        {
            "profiles.csv": "8618213e68fa06db7d26f183f5197c4466502ca7d5c0f836ccf4d70b2aa56e47",
        },
    ),
    "cohort": (
        0,
        {
            "cohort.csv": "5c4f8fac81c5efb2f7ec32ae4caa9e15a337a6bfc473b8a7d1fda15356e71f81",
        },
    ),
    "patents": (
        0,
        {
            "patent_indicators.csv": "1bcd11a0609260dbf1a97d469830728e2cdbb57ab28e823b6bc92754291f7738",
        },
    ),
    "table1": (
        0,
        {
            "comparison.csv": "31b11c26627546efc68300029588048d2530332cc07a274cc3ddd747c99d8917",
        },
    ),
    "lag-trend": (
        0,
        {
            "lag_summary.csv": "c9c80b0df75330076b4da7632059e4276f83b8672fc9b2862ed8613bc7759e6f",
            "lag_trend.csv": "15f8e1fa7becde0d2758ddf63612e4bc09b72c4e4bcc3add68bbb81b50040fbe",
        },
    ),
    "interactions": (
        0,
        {
            "field_distribution_dr.csv": "36f2e1bca8c7fe2dd101c4ec4ae46cdb4f44b81134abe03ae51fbad0d847183a",
            "field_distribution_ir.csv": "f271fdf097a005410794898efbdd8bd06858215ce1f8047dfe6e35446d0b92fd",
            "interaction_marginals_dr.csv": "91bfe674fe5e23ba8dfd6d2813586addb21b65d0302eb16b4c22aef04f62b82d",
            "interaction_marginals_ir.csv": "b4b4de66b7b0319b29c73672d7b301539c7370172f2f0069d90bc58db9a647a4",
            "interactions_dr.csv": "34a99cdcd5a6ed400c93a0aee09d8825645829e09104044bad6611cef9b1d1af",
            "interactions_ir.csv": "32e43c954b85f3fa01d4ccbb0139c29ab11fb9f897097d39a4e3a3b1a1e8e2b9",
        },
    ),
    "aagr": (
        0,
        {
            "aagr.csv": "df8e8ad6f8e3bc1fdae6122adb47270c1cec633e70fe9513264f0b606a9079b4",
        },
    ),
    "flag-contexts": (
        0,
        {
            "flagged_contexts.jsonl": "938959118dad4dcc9df868a562ad33123b939232bee98e4dfa9e4e4f9ad02ae0",
        },
    ),
    "validate": (
        0,
        {
            "<stdout>": "14010cd5eacf87dd3f8533757328cbe369f0d803991ab127a7fe95dd400ce94b",
        },
    ),
}

@pytest.mark.parametrize("dataset,config,command", CASES)
def test_command_outputs_match_recorded_digests(dataset, config, command, tmp_path):
    assert outputs(dataset, config, command, tmp_path / "run") == GOLDEN[(dataset, config, command)]


@pytest.fixture(scope="module")
def sparse_dataset(tmp_path_factory) -> Path:
    work = tmp_path_factory.mktemp("sparse") / "synth"
    write_sparse_dataset(work)
    return work / "out"


def test_sparse_synth_matches_recorded_digests(tmp_path):
    assert write_sparse_dataset(tmp_path / "run") == SPARSE_GOLDEN["synth"]


@pytest.mark.parametrize("command", COMMANDS)
def test_sparse_command_outputs_match_recorded_digests(command, sparse_dataset, tmp_path):
    assert sparse_outputs(sparse_dataset, command, tmp_path / "run") == SPARSE_GOLDEN[command]


def _print_entry(key: str, code: int, digests: dict[str, str]) -> None:
    print(f"    {key}: (")
    print(f"        {code},")
    print("        {")
    for name, digest in digests.items():
        print(f"            {json.dumps(name)}: {json.dumps(digest)},")
    print("        },")
    print("    ),")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN: dict[tuple[str, str, str], tuple[int, dict[str, str]]] = {")
        for i, case in enumerate(CASES):
            code, digests = outputs(*case, Path(tmp) / str(i))
            _print_entry(f"({', '.join(map(json.dumps, case))})", code, digests)
        print("}")
        print()
        print("SPARSE_GOLDEN: dict[str, tuple[int, dict[str, str]]] = {")
        sparse = Path(tmp) / "sparse"
        _print_entry('"synth"', *write_sparse_dataset(sparse))
        for command in COMMANDS:
            code, digests = sparse_outputs(sparse / "out", command, Path(tmp) / f"sparse-{command}")
            _print_entry(json.dumps(command), code, digests)
        print("}")
