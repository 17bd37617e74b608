"""Checkpoint persistence: bit-exact round-trips and corruption handling."""

import tracemalloc

import numpy as np
import pytest

from cfalign.checkpoint import (
    _empty_style,
    _expected_shapes,
    _state_arrays,
    load_checkpoint,
    save_checkpoint,
)
from cfalign.cli import main
from cfalign.config import RunConfig
from cfalign.data import SynthSpec, generate_dataset, save_dataset
from cfalign.errors import ConfigError, ContractError
from cfalign.evaluate import evaluate
from cfalign.heads import HEAD_KINDS
from cfalign.tensor import read_container, write_container
from cfalign.train import init_state, train


@pytest.fixture(scope="module")
def tiny_data():
    spec = SynthSpec(height=12, width=12, train_images=24, eval_images=6, regions=4, seed=2)
    return generate_dataset(spec)


def trained_state(data, **overrides):
    base = dict(
        seed=2,
        iterations=25,
        hidden_dim=12,
        feature_dim=8,
        contrastive=True,
        style_transfer=True,
        head="byol",
    )
    base.update(overrides)
    state, _ = train(RunConfig(**base), data)
    return state


class TestRoundTrip:
    def test_arrays_bit_identical(self, tiny_data, tmp_path):
        state = trained_state(tiny_data)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        got = dict(_state_arrays(loaded))
        for name, want in _state_arrays(state):
            np.testing.assert_array_equal(got[name], want, err_msg=name)

    def test_evaluation_identical(self, tiny_data, tmp_path):
        state = trained_state(tiny_data)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        a = evaluate(state, tiny_data.target_eval)
        b = evaluate(loaded, tiny_data.target_eval)
        assert a == b

    def test_config_echo(self, tiny_data, tmp_path):
        state = trained_state(tiny_data, tau=0.02, threshold=0.11)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.config == state.config
        assert loaded.classes == state.classes
        assert loaded.channels == state.channels

    def test_zero_iteration_checkpoint_equals_init(self, tiny_data, tmp_path):
        config = RunConfig(seed=4, iterations=0, hidden_dim=12, feature_dim=8)
        state, _ = train(config, tiny_data)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        fresh = init_state(config, tiny_data.spec.classes, tiny_data.spec.channels)
        for (name, got), (_, want) in zip(_state_arrays(loaded), _state_arrays(fresh)):
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_bank_flags_survive(self, tiny_data, tmp_path):
        state = trained_state(tiny_data)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.bank.init_source, state.bank.init_source)
        np.testing.assert_array_equal(loaded.bank.init_target, state.bank.init_target)
        assert loaded.bank.init_source.dtype == bool


class TestOneBank:
    @pytest.mark.parametrize("head", HEAD_KINDS)
    def test_width(self, head):
        config = RunConfig(head=head, feature_dim=4, head_out_dim=3)
        state = init_state(config, 3, 2)
        assert state.bank.feature_dim == (4 if head == "none" else 4 + 3)
        assert state.feature_bank().feature_dim == 4
        assert state.head_bank().feature_dim == (4 if head == "none" else 3)

    @pytest.mark.parametrize("head", ["none", "byol"])
    def test_views_share_rows_and_flags(self, head):
        state = init_state(RunConfig(head=head, feature_dim=4, head_out_dim=3), 3, 2)
        feat, proj = state.feature_bank(), state.head_bank()
        state.bank.v_source[:] = np.arange(state.bank.v_source.size).reshape(3, -1)
        state.bank.v_target[1] = -1.0
        state.bank.init_source[2] = True
        np.testing.assert_array_equal(feat.v_source, state.bank.v_source[:, :4])
        np.testing.assert_array_equal(proj.v_source, state.bank.v_source[:, -proj.feature_dim:])
        for view in (feat, proj):
            assert (view.v_target[1] == -1.0).all()
            assert view.init_source is state.bank.init_source
            assert view.init_target is state.bank.init_target
        feat.v_target[0] = 5.0  # and a write through a view lands in the bank
        assert (state.bank.v_target[0, :4] == 5.0).all()

    @pytest.mark.parametrize("head", HEAD_KINDS)
    def test_round_trip(self, tiny_data, tmp_path, head):
        state = trained_state(tiny_data, head=head, iterations=5)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(state, path)
        _, arrays = read_container(path, "cfalign-checkpoint")
        assert sorted(n for n in arrays if n.startswith("bank")) == [
            "bank.init_source", "bank.init_target", "bank.v_source", "bank.v_target"
        ]
        loaded = load_checkpoint(path)
        assert loaded.bank.feature_dim == state.bank.feature_dim
        for name in ("v_source", "v_target", "init_source", "init_target"):
            np.testing.assert_array_equal(getattr(loaded.bank, name), getattr(state.bank, name))
        assert loaded.bank.init_target.dtype == bool

    @pytest.fixture
    def version_1_file(self, tiny_data, tmp_path):
        """A checkpoint laid out as version 1 wrote it: twin bank_feat/bank_head groups."""
        path = tmp_path / "ckpt.bin"
        save_checkpoint(trained_state(tiny_data, head="none", iterations=3), path)
        header, arrays = read_container(path, "cfalign-checkpoint")
        header["version"] = 1
        for name in [n for n in arrays if n.startswith("bank.")]:
            array = arrays.pop(name)
            arrays[name.replace("bank.", "bank_feat.")] = array
            arrays[name.replace("bank.", "bank_head.")] = array
        write_container(path, header, arrays)
        return path

    def test_version_1_checkpoint_rejected(self, version_1_file):
        with pytest.raises(ContractError, match="checkpoint version 1, expected 2"):
            load_checkpoint(version_1_file)

    def test_version_1_checkpoint_exits_2(self, tiny_data, version_1_file, tmp_path, capsys):
        data_dir = tmp_path / "data"
        save_dataset(data_dir, tiny_data)
        assert main(["eval", "--checkpoint", str(version_1_file), "--data", str(data_dir)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "version 1, expected 2" in err


@pytest.mark.parametrize("head", HEAD_KINDS)
@pytest.mark.parametrize("style_transfer", [False, True])
def test_expected_shapes_match_state(head, style_transfer):
    config = RunConfig(head=head, hidden_dim=5, feature_dim=4, head_hidden_dim=6, head_out_dim=3,
                       style_transfer=style_transfer)
    state = init_state(config, 3, 2)
    if style_transfer:
        state.style = _empty_style(config, 2)
    got = _expected_shapes(config, 3, 2)
    assert got == {name: a.shape for name, a in _state_arrays(state)}


class TestStyleEcho:
    """The config echo's style_transfer alone fixes whether style tensors belong in the file."""

    @pytest.fixture
    def dataset_dir(self, tiny_data, tmp_path):
        save_dataset(tmp_path / "data", tiny_data)
        return tmp_path / "data"

    def saved(self, tiny_data, tmp_path, **overrides):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(trained_state(tiny_data, iterations=3, **overrides), path)
        header, arrays = read_container(path, "cfalign-checkpoint")
        return path, header, arrays

    def test_style_tensors_without_style_transfer_rejected(self, tiny_data, tmp_path):
        path, header, arrays = self.saved(tiny_data, tmp_path)
        header["config"]["style_transfer"] = False
        write_container(path, header, arrays)
        with pytest.raises(ContractError, match=r"unexpected \['style.stats_mean', 'style.stats_var'\]"):
            load_checkpoint(path)

    def test_style_transfer_without_style_tensors_rejected(self, tiny_data, tmp_path):
        path, header, arrays = self.saved(tiny_data, tmp_path, style_transfer=False)
        header["config"]["style_transfer"] = True
        write_container(path, header, arrays)
        with pytest.raises(ContractError, match=r"missing \['style.stats_mean', 'style.stats_var'\]"):
            load_checkpoint(path)

    def test_removed_style_net_keys_in_echo_ignored(self, tiny_data, tmp_path, dataset_dir, capsys):
        # files written before the style-net route was removed echo its five keys
        path, header, arrays = self.saved(tiny_data, tmp_path)
        assert main(["eval", "--checkpoint", str(path), "--data", str(dataset_dir)]) == 0
        plain = capsys.readouterr().out
        header["config"].update(style_net=False, style_net_dim=8, style_iters=200,
                                style_weight=1.0, style_lr=0.05)
        old = tmp_path / "old.bin"
        write_container(old, header, arrays)
        assert main(["eval", "--checkpoint", str(old), "--data", str(dataset_dir)]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("whole_route", [True, False], ids=["route-file", "stray-weights"])
    def test_style_net_tensors_exit_2(self, tiny_data, tmp_path, dataset_dir, capsys, whole_route):
        # "route-file" is laid out as the removed autoencoder route wrote it
        path, header, arrays = self.saved(tiny_data, tmp_path)
        dim = 4
        shapes = {"enc_w": (3, dim), "enc_b": (dim,), "dec_w": (dim, 3), "dec_b": (3,)}
        arrays.update({f"style.net.{name}": np.ones(shape) for name, shape in shapes.items()})
        if whole_route:
            header["config"].update(style_net=True, style_net_dim=dim)
            arrays.update({"style.net_stats_mean": np.zeros(dim), "style.net_stats_var": np.ones(dim)})
        write_container(path, header, arrays)
        assert main(["eval", "--checkpoint", str(path), "--data", str(dataset_dir)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "tensor set mismatch" in err and "style.net" in err

    def test_nan_weight_exits_2(self, tiny_data, tmp_path, dataset_dir, capsys):
        path, header, arrays = self.saved(tiny_data, tmp_path)
        arrays["model.enc2.weight"][1, 2] = np.nan
        write_container(path, header, arrays)
        assert main(["eval", "--checkpoint", str(path), "--data", str(dataset_dir)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "tensor 'model.enc2.weight' holds a NaN" in err


class TestCorruption:
    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(ContractError):
            load_checkpoint(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00\x01\x02 not a header\n")
        with pytest.raises(ContractError):
            load_checkpoint(path)

    def test_truncated_payload(self, tiny_data, tmp_path):
        state = trained_state(tiny_data, iterations=2)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(state, path)
        blob = path.read_bytes()
        (tmp_path / "cut.bin").write_bytes(blob[: len(blob) - 40])
        with pytest.raises(ContractError):
            load_checkpoint(tmp_path / "cut.bin")

    def test_renamed_tensor_rejected(self, tiny_data, tmp_path):
        state = trained_state(tiny_data, iterations=2)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(state, path)
        blob = path.read_bytes()
        patched = blob.replace(b"bank.v_source", b"bank.v_sourcX", 1)
        (tmp_path / "renamed.bin").write_bytes(patched)
        with pytest.raises(ContractError):
            load_checkpoint(tmp_path / "renamed.bin")

    @pytest.fixture
    def saved(self, tiny_data, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(trained_state(tiny_data, iterations=2), path)
        header, arrays = read_container(path, "cfalign-checkpoint")
        return path, header, arrays

    def test_bank_flag_outside_0_1(self, saved):
        path, header, arrays = saved
        arrays["bank.init_target"][0] = 2.0
        write_container(path, header, arrays)
        with pytest.raises(ContractError, match="other than 0 and 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["config", "classes", "channels"])
    def test_header_field_missing(self, saved, key):
        path, header, arrays = saved
        del header[key]
        write_container(path, header, arrays)
        with pytest.raises(ContractError, match="header needs"):
            load_checkpoint(path)

    def test_wrong_shape_tensor(self, saved):
        path, header, arrays = saved
        arrays["model.enc1.bias"] = arrays["model.enc1.bias"][:-1]
        write_container(path, header, arrays)
        with pytest.raises(ContractError, match="model.enc1.bias has shape"):
            load_checkpoint(path)

    def test_trailing_bytes(self, saved):
        path, _, _ = saved
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ContractError, match="after its last tensor"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["hidden_dim", "feature_dim", "head_out_dim"])
    def test_huge_dim_in_config_echo_allocates_nothing(self, saved, key):
        path, header, arrays = saved
        header["config"][key] = 10**6
        write_container(path, header, arrays)
        tracemalloc.start()
        try:
            with pytest.raises(ContractError, match="has shape"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_wrong_typed_config_echo(self, saved):
        path, header, arrays = saved
        header["config"]["iterations"] = "x"
        write_container(path, header, arrays)
        with pytest.raises(ConfigError, match="iterations must be an integer"):
            load_checkpoint(path)

    def test_huge_extent(self, saved):
        path, _, _ = saved
        blob = path.read_bytes()
        extent = blob.index(b"\n") + 5  # past the header line and the first rank
        path.write_bytes(blob[:extent] + b"\xff\xff\xff\xff" + blob[extent + 4 :])
        with pytest.raises(ContractError, match="declares"):
            load_checkpoint(path)
