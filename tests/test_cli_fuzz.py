"""Fuzz ``main()``: every input ends in exit 0-3 with a diagnosis on stderr, never an exception."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from partsketch.cli import STRATEGY_CHOICES, main

NUMERIC_CSV = "0123456789.,-+eE_ \n\r\tnaif"
STDERR_PREFIXES = ("error:", "i/o error:", "numeric failure:")


@st.composite
def matrix_csv(draw, rows, cols):
    """A well-formed CSV of any finite floats, or arbitrary (mostly malformed) text."""
    if draw(st.booleans()):
        values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                               min_size=rows * cols, max_size=rows * cols))
        text = "\n".join(",".join(repr(v) for v in values[r * cols:(r + 1) * cols]) for r in range(rows))
        return (text + "\n").encode()
    return draw(st.text(NUMERIC_CSV, max_size=40) | st.text(max_size=40)).encode("utf-8", "surrogatepass")


@st.composite
def matrix_bin(draw, rows, cols):
    """A ``.bin`` header of random dimensions over a payload of the matching or a random length."""
    header_rows = draw(st.sampled_from([rows]) | st.integers(-2, 6) | st.integers(-2**63, 2**63 - 1))
    header_cols = draw(st.sampled_from([cols]) | st.integers(-2, 6) | st.integers(-2**63, 2**63 - 1))
    if draw(st.booleans()):
        payload = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                         min_size=rows * cols, max_size=rows * cols)), dtype="<f8").tobytes()
    else:
        payload = draw(st.binary(max_size=8 * 24))
    return np.array([header_rows, header_cols], dtype="<i8").tobytes() + payload


def matrix_file(rows, cols):
    """(file suffix, bytes) of a matrix file, CSV or binary."""
    return st.tuples(st.just(".csv"), matrix_csv(rows, cols)) | st.tuples(st.just(".bin"), matrix_bin(rows, cols))


JSON_SCALARS = (st.none() | st.booleans() | st.integers(-2, 6) | st.integers()
                | st.floats() | st.text(max_size=3))
partition_json = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=5), max_leaves=12)


def optional(flag, values):
    """No flag, or the flag with a drawn value."""
    return st.just([]) | values.map(lambda v: [flag, str(v)])


@st.composite
def requests(draw):
    """Files to write and an argv naming them as ``{a}``, ``{b}``, ``{part}``; A and B shapes are drawn independently."""
    m, n, n_b, rho = (draw(st.integers(1, hi)) for hi in (4, 5, 5, 4))
    files = {"a": draw(matrix_file(m, n)), "b": draw(matrix_file(n_b, rho))}
    argv = [*draw(optional("--seed", st.integers(-2**70, 2**70))),
            *draw(optional("--strategy", st.sampled_from(STRATEGY_CHOICES)))]
    command = draw(st.sampled_from(["sketch", "analyze", "experiment"]))
    if command == "experiment":
        which = draw(st.sampled_from(["fig1", "fig2", "table1"]))
        return files, ["experiment", which, "--matrix-file", "{a}", "--trials", "2", "--runs", "2",
                       "--c-min", "1", "--c-max", "3", *argv]
    if draw(st.booleans()):
        groups = [[i + 1] for i in range(n)] if draw(st.booleans()) else draw(partition_json)
        files["part"] = (".json", json.dumps(groups).encode())
        argv += ["--partition-file", "{part}"]
    if command == "sketch":
        argv += ["--c", str(draw(st.integers(-1, 6)))]
    else:
        argv += [*draw(optional("--c", st.integers(-1, 6))), *draw(optional("--k", st.integers(-1, 5))),
                 *draw(optional("--epsilon", st.floats().map(repr)))]
    return files, [command, "--a", "{a}", "--b", "{b}", *argv]


@pytest.mark.filterwarnings("error")  # a floating-point warning would mean a non-finite result went unreported
@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(request=requests())
def test_main_ends_in_an_exit_code(tmp_path, capsys, request):
    files, argv = request
    paths = {}
    for name, (suffix, content) in files.items():
        paths[name] = tmp_path / f"{name}{suffix}"
        paths[name].write_bytes(content)
    code = main([arg.format(**paths) for arg in argv] + ["--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    if code != 0:
        assert err.startswith(STDERR_PREFIXES), err
        assert "Traceback" not in err
