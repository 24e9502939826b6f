"""The command-line surface, pinned: the help of every command and
sub-command, the version line, and the usage errors argparse reports, each
with its exit code, in an 80-column terminal.  The texts are argparse's
under Python 3.11; a change to how the parser is built must leave every one
byte for byte."""

import pytest

from lzcross import __version__
from lzcross.cli import main

HELP = {
    ("--help",): """\
usage: lzcross [-h] [--version] [--config CONFIG] [--out OUT_DIR]
               {lemma,cross,norm,approx,extremal,theorem1} ...

Hyperbolic-cross approximation experiments and norm evaluation

positional arguments:
  {lemma,cross,norm,approx,extremal,theorem1}
    lemma               asymptotic lemma ratio checks
    cross               index-set generation
    norm                mixed norm of grid samples
    approx              cross-truncation error scan
    extremal            build a lower-bound extremal function
    theorem1            rate experiments

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
  --config CONFIG       JSON config file with experiment options
  --out OUT_DIR         output directory (default: current directory)
""",
    ("lemma", "--help"): """\
usage: lzcross lemma [-h] {check} ...

positional arguments:
  {check}

options:
  -h, --help  show this help message and exit
""",
    ("lemma", "check", "--help"): """\
usage: lzcross lemma check [-h] --id {1,2,3,4} [--case CASE] [--params PARAMS]
                           [--range A:B:MODE]
                           [--relation {two-sided,lower,upper}]
                           [--spread-threshold SPREAD_THRESHOLD]
                           [--out REPORT.CSV]

options:
  -h, --help            show this help message and exit
  --id {1,2,3,4}
  --case CASE           lemma 1: 1|2|3; lemma 2: decay|growth
  --params PARAMS       JSON file with lemma parameters
  --range A:B:MODE
  --relation {two-sided,lower,upper}
  --spread-threshold SPREAD_THRESHOLD
  --out REPORT.CSV
""",
    ("cross", "--help"): """\
usage: lzcross cross [-h] {gen} ...

positional arguments:
  {gen}

options:
  -h, --help  show this help message and exit
""",
    ("cross", "gen", "--help"): """\
usage: lzcross cross gen [-h] --n N --gamma GAMMA [--out CROSS.JSON]

options:
  -h, --help        show this help message and exit
  --n N             level, rational like 5/2 allowed
  --gamma GAMMA     comma-separated rationals
  --out CROSS.JSON
""",
    ("norm", "--help"): """\
usage: lzcross norm [-h] --grid GRID [--p P] [--alpha ALPHA] [--tau TAU]

options:
  -h, --help     show this help message and exit
  --grid GRID    GridFunction JSON file
  --p P          comma-separated per-axis p
  --alpha ALPHA  comma-separated per-axis alpha
  --tau TAU      comma-separated per-axis tau
""",
    ("approx", "--help"): """\
usage: lzcross approx [-h] --spectral SPECTRAL --gamma GAMMA
                      [--range A:B:MODE] [--target-p TARGET_P]
                      [--target-alpha TARGET_ALPHA] [--target-tau TARGET_TAU]
                      [--grid GRID] [--out ERRORS.CSV]

options:
  -h, --help            show this help message and exit
  --spectral SPECTRAL   SpectralFunction JSON file
  --gamma GAMMA
  --range A:B:MODE
  --target-p TARGET_P
  --target-alpha TARGET_ALPHA
  --target-tau TARGET_TAU
  --grid GRID           comma-separated residual grid shape
  --out ERRORS.CSV
""",
    ("extremal", "--help"): """\
usage: lzcross extremal [-h] [--which {1,2,3}] --n N [--params PARAMS]
                        [--out F.JSON]

options:
  -h, --help       show this help message and exit
  --which {1,2,3}
  --n N
  --params PARAMS  JSON file with class/target parameters
  --out F.JSON
""",
    ("theorem1", "--help"): """\
usage: lzcross theorem1 [-h] {rate} ...

positional arguments:
  {rate}

options:
  -h, --help  show this help message and exit
""",
    ("theorem1", "rate", "--help"): """\
usage: lzcross theorem1 rate [-h] [--params PARAMS] [--which {1,2,3}]
                             [--range A:B:MODE]
                             [--fit-tolerance FIT_TOLERANCE]
                             [--spread-threshold SPREAD_THRESHOLD]
                             [--out RATE.CSV]

options:
  -h, --help            show this help message and exit
  --params PARAMS       JSON file with class/target parameters
  --which {1,2,3}
  --range A:B:MODE
  --fit-tolerance FIT_TOLERANCE
  --spread-threshold SPREAD_THRESHOLD
  --out RATE.CSV
""",
}

USAGE_ERRORS = {
    (): """\
usage: lzcross [-h] [--version] [--config CONFIG] [--out OUT_DIR]
               {lemma,cross,norm,approx,extremal,theorem1} ...
lzcross: error: the following arguments are required: command
""",
    ("bogus",): """\
usage: lzcross [-h] [--version] [--config CONFIG] [--out OUT_DIR]
               {lemma,cross,norm,approx,extremal,theorem1} ...
lzcross: error: argument command: invalid choice: 'bogus' (choose from 'lemma', 'cross', 'norm', 'approx', 'extremal', 'theorem1')
""",
    ("lemma",): """\
usage: lzcross lemma [-h] {check} ...
lzcross lemma: error: the following arguments are required: subcommand
""",
    ("lemma", "check"): """\
usage: lzcross lemma check [-h] --id {1,2,3,4} [--case CASE] [--params PARAMS]
                           [--range A:B:MODE]
                           [--relation {two-sided,lower,upper}]
                           [--spread-threshold SPREAD_THRESHOLD]
                           [--out REPORT.CSV]
lzcross lemma check: error: the following arguments are required: --id
""",
    ("lemma", "check", "--id", "9"): """\
usage: lzcross lemma check [-h] --id {1,2,3,4} [--case CASE] [--params PARAMS]
                           [--range A:B:MODE]
                           [--relation {two-sided,lower,upper}]
                           [--spread-threshold SPREAD_THRESHOLD]
                           [--out REPORT.CSV]
lzcross lemma check: error: argument --id: invalid choice: 9 (choose from 1, 2, 3, 4)
""",
    ("--threads", "2", "lemma", "check", "--id", "1"): """\
usage: lzcross [-h] [--version] [--config CONFIG] [--out OUT_DIR]
               {lemma,cross,norm,approx,extremal,theorem1} ...
lzcross: error: argument command: invalid choice: '2' (choose from 'lemma', 'cross', 'norm', 'approx', 'extremal', 'theorem1')
""",
    ("theorem1", "rate", "--bogus"): """\
usage: lzcross [-h] [--version] [--config CONFIG] [--out OUT_DIR]
               {lemma,cross,norm,approx,extremal,theorem1} ...
lzcross: error: unrecognized arguments: --bogus
""",
}


def run_main(argv, monkeypatch, tmp_path, capsys):
    """(exit code, stdout, stderr) of main(argv) in an 80-column terminal."""
    monkeypatch.setenv("COLUMNS", "80")
    for name in ("LZCROSS_CONFIG", "LZCROSS_OUT"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_help_text(argv, monkeypatch, tmp_path, capsys):
    assert run_main(argv, monkeypatch, tmp_path, capsys) == (0, HELP[argv], "")


def test_version_line(monkeypatch, tmp_path, capsys):
    assert run_main(["--version"], monkeypatch, tmp_path, capsys) == (
        0, f"lzcross {__version__}\n", ""
    )


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda a: " ".join(a) or "no-command")
def test_usage_error(argv, monkeypatch, tmp_path, capsys):
    assert run_main(argv, monkeypatch, tmp_path, capsys) == (2, "", USAGE_ERRORS[argv])
    assert list(tmp_path.iterdir()) == []  # refused before any output
