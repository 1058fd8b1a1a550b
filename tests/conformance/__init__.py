"""Rendering-conformance harness.

Drives seeded randomized scenarios over a three-pane window and asserts
the rendered surface is byte-identical under every combination of the
toolkit's rendering gates (``ANDREW_COMPOSITOR``, ``ANDREW_METRICS``)
on both backends, drawing immediately and recorded for replay (the
``batch`` arm).  See ``driver`` for the scenario machinery and
``test_matrix`` for the gate matrix itself.
"""
