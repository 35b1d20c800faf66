"""The key = value codec shared by the training config and the synthesis spec."""
import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from mafn.config import TrainConfig, parse_config_text, render_fields
from mafn.synthetic import SynthSpec, parse_synth_spec_text

# the str fields take one of the words the program accepts
WORDS = {"cluster_features": ("settings", "sensors"), "trend": ("linear", "quadratic")}
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _values_like(name, default):
    """Any value of the default's type: bool, int, finite float, an accepted
    word, or a tuple of the element type (empty included)."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers()
    if isinstance(default, float):
        return FINITE
    if isinstance(default, str):
        return st.sampled_from(WORDS[name])
    element = st.integers() if isinstance(default[0], int) else FINITE
    return st.lists(element, max_size=4).map(tuple)


def _instances(cls):
    fields = {f.name: _values_like(f.name, f.default) for f in dataclasses.fields(cls)}
    return st.fixed_dictionaries(fields).map(lambda values: cls(**values))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_instances(TrainConfig), _instances(SynthSpec)))
def test_render_then_parse_is_identity(spec):
    parse = {TrainConfig: parse_config_text, SynthSpec: parse_synth_spec_text}[type(spec)]
    assert parse(render_fields(spec, "# header", {"seed": "a comment"})) == spec
