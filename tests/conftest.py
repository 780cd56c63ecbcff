import numpy as np
import pytest

from rollmia import PianorollShape, synth_generate


@pytest.fixture(scope="session")
def desk_shape():
    return PianorollShape(tracks=2, bars=1, steps_per_bar=16, pitches=24)


@pytest.fixture(scope="session")
def small_population(desk_shape):
    return synth_generate(7, 300, desk_shape)


def make_roll(shape: PianorollShape, on_cells=()):
    cells = np.zeros(shape.dims(), dtype=np.uint8)
    for idx in on_cells:
        cells[idx] = 1
    return cells


def nan_gradients_from(monkeypatch, iteration: int) -> None:
    """Make every gradient NaN from training iteration ``iteration`` on, by
    patching ``nn.adam_step`` (one discriminator step per iteration)."""
    from rollmia import nn

    real_step = nn.adam_step

    def step(params, grads, state, scratch):
        if state.step + 1 >= iteration:
            grads[...] = np.nan
        real_step(params, grads, state, scratch)

    monkeypatch.setattr(nn, "adam_step", step)
