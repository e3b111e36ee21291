import json

import jsonschema
import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinlab.errors import InvalidConfigurationError, InvalidModelError
from spinlab.model import (
    Configuration,
    SpinSystem,
    classify_field,
    disjoint_union,
    load_model,
    log_weight,
    model_from_dict,
    model_to_dict,
    save_model,
    FIELD_CONSISTENT,
    FIELD_MONOCHROMATIC,
    FIELD_UNRESTRICTED,
    FIELD_ZERO,
)


def small_model(q=2):
    return SpinSystem(
        q=q,
        n=3,
        edges=((0, 1, 0.5), (1, 2, -0.25)),
        field=((0, 0, 0.3),),
    )


class TestSpinSystem:
    def test_edges_canonicalized(self):
        m = SpinSystem(q=2, n=3, edges=((2, 0, 1.0),), field=())
        assert m.edges == ((0, 2, 1.0),)

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidModelError):
            SpinSystem(q=2, n=2, edges=((1, 1, 1.0),), field=())

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InvalidModelError):
            SpinSystem(q=2, n=2, edges=((0, 1, 1.0), (1, 0, 2.0)), field=())

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(InvalidModelError):
            SpinSystem(q=2, n=2, edges=((0, 2, 1.0),), field=())

    def test_rejects_bad_field_spin(self):
        with pytest.raises(InvalidModelError):
            SpinSystem(q=2, n=2, edges=(), field=((0, 2, 1.0),))

    def test_degrees(self):
        m = small_model()
        assert list(m.degrees) == [1, 2, 1]

    def test_log2_states(self):
        assert SpinSystem(q=2, n=10, edges=(), field=()).log2_states() == pytest.approx(10)
        assert SpinSystem(q=3, n=4, edges=(), field=()).log2_states() == pytest.approx(
            4 * np.log2(3)
        )


class TestLogWeight:
    def test_matches_hand_computation(self):
        m = small_model()
        # sigma = (0, 0, 1): edge (0,1) satisfied, field on vertex 0 spin 0 active
        assert log_weight(m, (0, 0, 1)) == pytest.approx(0.5 + 0.3)

    def test_configuration_validation(self):
        m = small_model()
        with pytest.raises(InvalidConfigurationError):
            Configuration((0, 1, 2)).validate_for(m)

    @given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
    def test_color_swap_symmetry_zero_field(self, a, b, c):
        m = SpinSystem(q=2, n=3, edges=((0, 1, 0.7), (1, 2, -0.2)), field=())
        flipped = (1 - a, 1 - b, 1 - c)
        assert log_weight(m, (a, b, c)) == pytest.approx(log_weight(m, flipped))


class TestClassifyField:
    def test_zero(self):
        assert classify_field(SpinSystem(q=2, n=2, edges=(), field=())) == FIELD_ZERO

    def test_consistent(self):
        m = SpinSystem(q=2, n=2, edges=(), field=((0, 0, 0.5), (1, 0, 1.0)))
        assert classify_field(m) == FIELD_CONSISTENT

    def test_monochromatic(self):
        m = SpinSystem(q=2, n=2, edges=(), field=((0, 0, 0.5), (1, 1, 1.0)))
        assert classify_field(m) == FIELD_MONOCHROMATIC

    def test_unrestricted(self):
        m = SpinSystem(q=2, n=1, edges=(), field=((0, 0, 0.5), (0, 1, 1.0)))
        assert classify_field(m) == FIELD_UNRESTRICTED


class TestSerialization:
    def test_round_trip(self, tmp_path):
        m = SpinSystem(
            q=3,
            n=4,
            edges=((0, 1, 1.5), (2, 3, -0.5)),
            field=((1, 2, 0.25),),
            bipartition=((0, 2), (1, 3)),
        )
        path = tmp_path / "model.json"
        save_model(m, str(path))
        assert load_model(str(path)) == m

    def test_schema_rejects_missing_key(self):
        doc = model_to_dict(small_model())
        del doc["edges"]
        with pytest.raises(Exception):
            model_from_dict(doc)

    def test_schema_rejects_extra_key(self):
        doc = model_to_dict(small_model())
        doc["extra"] = 1
        with pytest.raises(Exception):
            model_from_dict(doc)

    @pytest.mark.parametrize(
        "key, entry", [("edges", [0.7, 1, 1.0]), ("edges", [0, 1.5, 1.0]), ("field", [1, 0.5, 1.0])]
    )
    def test_schema_rejects_fractional_ids(self, key, entry):
        doc = {"q": 2, "n": 2, "edges": [], "field": []}
        doc[key] = [entry]
        with pytest.raises(jsonschema.ValidationError):
            model_from_dict(doc)

    def test_schema_accepts_integral_weights(self):
        m = model_from_dict({"q": 2, "n": 2, "edges": [[0, 1, 1]], "field": [[1, 0, 2]]})
        assert m.edges == ((0, 1, 1.0),) and m.field == ((1, 0, 2.0),)

    def test_json_is_plain(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(small_model(), str(path))
        doc = json.loads(path.read_text())
        assert set(doc) == {"q", "n", "edges", "field"}


class TestDisjointUnion:
    def test_shifts_indices(self):
        a = SpinSystem(q=2, n=2, edges=((0, 1, 1.0),), field=((0, 0, 0.5),))
        u = disjoint_union([a, a])
        assert u.n == 4
        assert u.edges == ((0, 1, 1.0), (2, 3, 1.0))
        assert u.field == ((0, 0, 0.5), (2, 0, 0.5))

    def test_mismatched_q_rejected(self):
        a = SpinSystem(q=2, n=1, edges=(), field=())
        b = SpinSystem(q=3, n=1, edges=(), field=())
        with pytest.raises(InvalidModelError):
            disjoint_union([a, b])
