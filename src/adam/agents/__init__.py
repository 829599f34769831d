"""Three coordinated agents: computational, summarization, classification.

The package exports nothing: import each name from the module that
defines it (``computational``, ``llm``, ``pipeline``, ``report`` or
``steps``).
"""
