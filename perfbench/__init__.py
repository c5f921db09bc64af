"""The repository benchmark (see NOTES.md): workloads, tracing, references."""
