"""Backend models: presets, JSON schema, validation."""

import json
import time

import pytest

from qdotplot import BackendModel, ConfigError, builtin_backend_names, load_backend


def test_builtin_names():
    assert builtin_backend_names() == ("allsim", "ion-40", "superconducting-53")


def test_allsim_preset():
    b = load_backend("allsim")
    assert b.qubit_count >= 64
    assert b.coupling_map is None  # all-to-all
    assert b.gate_time_seconds is None
    for g in ("h", "x", "cx", "ccx", "p", "cp", "u2", "u3", "swap", "rootx", "crootx"):
        assert g in b.native_gates


def test_superconducting_preset():
    b = load_backend("superconducting-53")
    assert b.qubit_count == 53
    assert set(b.native_gates) == {"p", "u2", "u3", "cx"}  # u1 normalizes to p
    assert b.coupling_map is not None
    assert abs(b.gate_time_seconds - 130e-9) < 1e-18
    # Sparse map: far fewer edges than all-to-all, every qubit reachable.
    assert len(b.coupling_map) < 53 * 52 // 4
    adj = b.adjacency()
    assert set(adj) == set(range(53))


def test_ion_preset():
    b = load_backend("ion-40")
    assert b.qubit_count == 40
    assert set(b.native_gates) == {"rx", "ry", "rxx"}
    assert b.coupling_map is None
    assert abs(b.gate_time_seconds - 20e-6) < 1e-12


def test_load_from_dict_and_u1_alias():
    b = load_backend(
        {
            "name": "toy",
            "qubit_count": 3,
            "native_gates": ["u1", "u2", "u3", "cx"],
            "coupling_map": [[0, 1], [1, 2]],
            "gate_time_ns": 50,
        }
    )
    assert "p" in b.native_gates and "u1" not in b.native_gates
    assert b.coupling_map == ((0, 1), (1, 2))
    assert abs(b.gate_time_seconds - 50e-9) < 1e-18


def test_load_from_path(tmp_path):
    f = tmp_path / "b.json"
    f.write_text(
        json.dumps(
            {
                "name": "filebased",
                "qubit_count": 2,
                "native_gates": ["u3", "cx"],
                "coupling_map": "all",
            }
        )
    )
    b = load_backend(f)
    assert b.name == "filebased"
    assert b.coupling_map is None
    assert b.gate_time_seconds is None


def test_load_passthrough_backendmodel():
    b = BackendModel(name="x", qubit_count=2, native_gates=("cx", "u3"))
    assert load_backend(b) is b


def test_unknown_preset_is_config_error():
    with pytest.raises(ConfigError, match="unknown backend"):
        load_backend("definitely-not-a-backend")


def test_validation_rejects_bad_maps():
    with pytest.raises((ConfigError, ValueError)):
        BackendModel(
            name="loop", qubit_count=2, native_gates=("cx",), coupling_map=((0, 0),)
        )
    with pytest.raises((ConfigError, ValueError)):
        BackendModel(
            name="oob", qubit_count=2, native_gates=("cx",), coupling_map=((0, 5),)
        )
    with pytest.raises((ConfigError, ValueError), match="connect"):
        BackendModel(
            name="split",
            qubit_count=4,
            native_gates=("cx",),
            coupling_map=((0, 1), (2, 3)),
        )


def test_a_coupled_backend_with_too_few_edges_is_rejected_at_once():
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="coupling map of 'big' is not connected"):
        load_backend({"name": "big", "qubit_count": 10**9, "native_gates": ["cx"],
                      "coupling_map": [[0, 1]]})
    assert time.perf_counter() - start < 1.0


def test_a_coupled_backend_refuses_natives_on_three_qubits():
    natives = ("u3", "cx", "ccx")
    with pytest.raises(ConfigError, match="native gate 'ccx' of 'line' acts on 3 qubits"):
        BackendModel(name="line", qubit_count=3, native_gates=natives,
                     coupling_map=((0, 1), (1, 2)))
    assert BackendModel(name="all", qubit_count=3, native_gates=natives).native_gates == natives


def test_native_names_that_match_no_gate_label_are_accepted():
    assert load_backend({"qubit_count": 2, "native_gates": ["rz", "id", "cx"]}).native_gates == (
        "rz", "id", "cx")


def test_validation_rejects_bad_scalars():
    with pytest.raises((ConfigError, ValueError)):
        load_backend({"name": "t", "qubit_count": 0, "native_gates": ["cx"]})
    with pytest.raises((ConfigError, ValueError)):
        load_backend(
            {"name": "t", "qubit_count": 2, "native_gates": ["cx"], "gate_time_ns": -1}
        )
    with pytest.raises((ConfigError, ValueError)):
        load_backend({"name": "t", "qubit_count": 2, "native_gates": []})


def test_native_gates_must_be_a_list_of_names():
    # A string used to be read as its characters: "cx" became {"c", "x"}.
    for natives in ("cx", ["cx", 3], {"cx": 1}):
        with pytest.raises(ConfigError, match="native_gates must be a list of gate names"):
            load_backend({"name": "t", "qubit_count": 2, "native_gates": natives})


def test_adjacency_symmetric_sorted():
    b = load_backend(
        {
            "name": "line",
            "qubit_count": 4,
            "native_gates": ["cx", "u3"],
            "coupling_map": [[2, 1], [0, 1], [3, 2]],
        }
    )
    adj = b.adjacency()
    assert adj[1] == (0, 2)
    assert adj[2] == (1, 3)
    assert all(a in adj[c] for a, nbrs in adj.items() for c in nbrs)


def test_a_gate_time_too_large_for_a_float_is_a_config_error():
    with pytest.raises(ConfigError, match="malformed backend description"):
        load_backend({"name": "t", "qubit_count": 2, "native_gates": ["cx"],
                      "gate_time_ns": 10 ** 400})


def test_adjacency_needs_a_coupling_map():
    with pytest.raises(ConfigError, match="^backend 'allsim' has no coupling map$"):
        load_backend("allsim").adjacency()
