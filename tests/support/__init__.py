"""Shared helpers for the test suite."""
