"""Experiment harness utilities: scenarios, runners, and reporting."""
