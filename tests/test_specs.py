"""Every kernel or potential spec string either parses or is refused with a
ParameterError (exit 1 at the CLI), never any other exception."""

from hypothesis import given, settings, strategies as st

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
