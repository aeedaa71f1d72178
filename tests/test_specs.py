"""Every kernel or potential spec string either parses or is refused with a
ParameterError (exit 1 at the CLI), never any other exception; and every
spec that parses, with rewards up to 1e3, runs through the CLI to one of its
exit codes."""

import tempfile

from hypothesis import assume, example, given, settings, strategies as st

from wetting_lab.cli import main
from wetting_lab.errors import ParameterError
from wetting_lab.kernels import WalkKernel, parse_kernel_spec
from wetting_lab.potentials import PinningPotential, parse_potential_spec

# table: and list: take a file path; this test reads no file
KERNEL_FIELDS = {"binomial": ("sigma2",), "sos": ("beta", "tail_tol")}
POTENTIAL_FIELDS = {"single": ("j", "eps"), "power": ("delta", "amp", "sign"),
                    "exp": ("delta", "amp")}

_value = st.one_of(st.floats(min_value=0.0, exclude_min=True).map(repr),
                   st.floats().map(repr), st.integers().map(str),
                   st.sampled_from(("+", "-")), st.text(max_size=8))


def _specs(fields: dict[str, tuple[str, ...]]):
    """``family:key=value,...`` with the family's own keys and arbitrary
    values, or with arbitrary fields, or arbitrary text without a path
    prefix."""
    def family_spec(head: str):
        clean = st.dictionaries(st.sampled_from(fields[head]), _value).map(
            lambda kv: [f"{k}={v}" for k, v in kv.items()])
        field = st.one_of(
            st.text(max_size=12),
            st.builds("{}={}".format,
                      st.sampled_from(fields[head] + ("typo",)), _value))
        return st.one_of(clean, st.lists(field, max_size=4)).map(
            lambda items: f"{head}:{','.join(items)}")

    text = st.text(max_size=40).filter(
        lambda s: not s.startswith(("table:", "list:")))
    return st.one_of(st.sampled_from(sorted(fields)).flatmap(family_spec), text)


def _parses_or_refuses(parse, spec, kind):
    try:
        assert isinstance(parse(spec), kind)
    except ParameterError:
        pass


@settings(deadline=None, max_examples=500)
@given(_specs(KERNEL_FIELDS))
def test_kernel_spec_parses_or_is_parameter_error(spec):
    _parses_or_refuses(parse_kernel_spec, spec, WalkKernel)


@settings(deadline=None, max_examples=500)
@given(_specs(POTENTIAL_FIELDS))
def test_potential_spec_parses_or_is_parameter_error(spec):
    _parses_or_refuses(parse_potential_spec, spec, PinningPotential)


_reward = st.floats(min_value=0.0, max_value=1e3)
_positive = st.floats(min_value=0.0, max_value=10.0, exclude_min=True)
PARSED_KERNELS = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True).map(
        "binomial:sigma2={!r}".format),
    st.floats(min_value=0.0, max_value=50.0, exclude_min=True).map(
        "sos:beta={!r}".format))
PARSED_POTENTIALS = st.one_of(
    st.builds("single:j={},eps={!r}".format, st.integers(0, 64), _reward),
    st.builds("exp:delta={!r},amp={!r}".format, _positive, _reward),
    st.builds("power:delta={!r},amp={!r},sign={}".format, _positive, _reward,
              st.sampled_from("+-")))


# 100 examples take about 1-3 s
@settings(deadline=None, max_examples=100)
@given(PARSED_KERNELS, PARSED_POTENTIALS,
       st.sampled_from([("certify-loc",), ("free-energy", "--L-cross", "64")]))
# log Z underflowed to -inf here, and the cross-check slope was NaN
@example("binomial:sigma2=0.25", "single:j=4,eps=246.0",
         ("free-energy", "--L-cross", "64"))
def test_cli_runs_parsed_specs_to_an_exit_code(kernel, pot, run):
    try:
        parse_kernel_spec(kernel)
        parse_potential_spec(pot)
    except ParameterError:
        assume(False)
    with tempfile.TemporaryDirectory() as out:
        rc = main([run[0], "--kernel", kernel, "--pot", pot, *run[1:],
                   "--out-dir", out])
    assert rc in (0, 1, 2, 3)
