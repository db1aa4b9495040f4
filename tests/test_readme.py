"""README.md names only what exists: its commands, config keys, CSV header,
report rows and trend gates are the program's, and its library example
runs."""

import argparse
import re
import shlex
from pathlib import Path

from omegashift.cli import build_parser
from omegashift.experiment import CSV_HEADER, ExperimentConfig, parse_config, run_experiment
from omegashift.verify import TREND_GATES

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(info: str) -> list[str]:
    """The bodies of README's fenced blocks whose info string is info."""
    return re.findall(rf"^```{info}\n(.*?)^```$", README, flags=re.M | re.S)


def _section(title: str) -> str:
    """README's text from the heading "## title" to the next "## " heading."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _table_names(text: str) -> list[str]:
    """The first cell of each body row of the markdown tables in text: the
    rows after a table's |---| line."""
    names, in_body = [], False
    for line in map(str.strip, text.splitlines()):
        if not line.startswith("|"):
            in_body = False
        elif set(line) <= set("|-"):
            in_body = True
        elif in_body:
            names.append(line.split("|")[1].strip())
    return names


def test_readme_commands_are_the_parsers_subcommands():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    lines = [line for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("omegashift ")]
    named = set()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        parser.parse_args(argv)  # every flag and value of the line exists and parses
        named.add(argv[0])
    assert named == set(subparsers.choices)


def test_readme_config_keys_are_the_config_fields():
    (block,) = _blocks("ini")
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines()
            if line.split("#", 1)[0].strip()]
    assert sorted(keys) == sorted(ExperimentConfig._fields)
    parse_config(block)  # and the example is a valid config


def test_readme_csv_header_is_the_reports():
    (block,) = _blocks("csv")
    assert block.strip() == CSV_HEADER


def test_readme_rows_are_the_rows_a_run_writes(tmp_path):
    config = ExperimentConfig(
        x_list=(10_000,), k_list=(1, 2), w_rule="loglog_sq", ell_max=2, moments=(2, 4),
        output_dir=str(tmp_path), baseline=True, large_factor_c=4.0,
    )
    written = {row.statistic for row in run_experiment(config).rows}
    named = [name.split()[0].strip("`")
             for name in _table_names(_section("The statistic and its predicted limits"))]
    patterns = {name: re.compile(re.escape(name).replace("<m>", r"\d+")) for name in named}
    assert len(named) == len(set(named))
    assert {n for n, p in patterns.items() if not any(p.fullmatch(s) for s in written)} == set()
    assert {s for s in written if not any(p.fullmatch(s) for p in patterns.values())} == set()


def test_readme_gates_are_the_trend_gates():
    labels = {label.strip() for cell in _table_names(_section("How each number is checked"))
              for label in cell.split(",")}
    assert labels == {gate.label for gate in TREND_GATES}


def test_readme_library_example_runs(capsys):
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3
