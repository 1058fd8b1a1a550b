"""Rendering-conformance harness.

Drives seeded randomized scenarios over a three-pane window and asserts
the rendered surface is byte-identical with and without the toolkit's
rendering gates (``ANDREW_METRICS``, ``ANDREW_SCROLLBLIT``,
``ANDREW_QUARANTINE``) on both backends, drawing immediately and
recorded for replay (the ``batch`` arm).  See ``driver`` for the scenario machinery and
``test_matrix`` for the gate matrix itself.
"""
