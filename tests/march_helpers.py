"""The whole march of gummel.advance, for the tests that read every state."""

from dataclasses import replace

from dpnpsim.gummel import SweepSettings, advance


def march(grid, params, initial, schedule, settings=SweepSettings()):
    """advance() with every State kept: its SimResult, whose states are those of steps 0, 1, ..., the last."""
    states = []
    result = advance(grid, params, initial, schedule, settings, lambda k, state: states.append(state))
    return replace(result, states=states + result.states)
