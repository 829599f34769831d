"""The two fixed 8-step reasoning programs.

Each agent follows a frozen list of step titles; every dispatched
prompt carries all eight titles of its program verbatim and in order.
The short instruction under each title tells the language model what
the step must cover.
"""

SUMMARIZATION_TITLES = (
    "Patient Overview",
    "Key Clinical Markers",
    "Gut Microbiome Profile",
    "Diversity Metrics Analysis",
    "Interactions and Mechanisms",
    "Descriptive Correlation",
    "Machine Learning analysis and probabilistic assessment",
    "Final Comprehensive Descriptive Summary",
)

CLASSIFICATION_TITLES = (
    "Historical Data Insights",
    "Diversity Metrics & Classification Refinement",
    "Adaptive Threshold Decisioning",
    "Handling Edge Cases & Misclassifications",
    "Comprehensive Summary of this Visit",
    "SHAP Feature Importance",
    "Key Considerations for Prediction and Misclassification Adjustments",
    "Prediction Decision Rules",
)

SUMMARIZATION_INSTRUCTIONS = (
    "State the patient's demographics, visit number, and overall context.",
    "Describe the clinical covariates and flag values outside typical ranges.",
    "Characterize the gut microbiome composition and the dominant taxa.",
    "Interpret the alpha diversity indices and the distances to the healthy reference.",
    "Relate clinical factors and microbial taxa through known mechanisms.",
    "Describe correlations between the clinical picture and the microbiome profile.",
    "Interpret the model probability and the feature attributions driving it.",
    "Compose the full descriptive summary integrating every step above.",
)

CLASSIFICATION_INSTRUCTIONS = (
    "Review earlier visits of this participant and note trends.",
    "Weigh the diversity metrics for or against the positive class.",
    "Apply the decision threshold to the model probability; justify any adjustment.",
    "Consider atypical feature combinations that historically cause misclassification.",
    "Summarize this visit's evidence in a few sentences.",
    "Rank the attribution values and state the direction of each top feature.",
    "List the considerations that could overturn the preliminary decision.",
    "State the final decision rule and produce the verdict line.",
)


# stage -> its (title, instruction) steps, in order
PROGRAMS = {
    "summarization": tuple(zip(SUMMARIZATION_TITLES, SUMMARIZATION_INSTRUCTIONS)),
    "classification": tuple(zip(CLASSIFICATION_TITLES, CLASSIFICATION_INSTRUCTIONS)),
}
