"""A minimal installable repro plugin.

Installed next to ``repro-pipefill``, this module is discovered through
the ``repro.plugins`` entry-point group (see ``pyproject.toml``) and
imported for its registration side effects: afterwards the policy below
resolves by name everywhere names are used::

    repro run scenarios/smoke.yaml --set policy=toy-longest-wait
    repro sweep scenarios/smoke.yaml --parameter policy --values sjf,toy-longest-wait

CI's clean-venv job installs exactly this package to prove the plugin
path works outside the source tree.
"""

from repro.registry import register_policy


@register_policy("toy-longest-wait")
def toy_longest_wait(job, state, executor_index):
    """Serve the job that has waited longest (FIFO restated as a score)."""
    return state.now - job.arrival_time

