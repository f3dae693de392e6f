"""The public names of ``factorrisk``.

Every change keeps ``sorted(factorrisk.__all__)`` as it is, so that code
written against the package keeps importing; adding or removing a public
name is a decision of its own, made by editing this list with it.
"""

import factorrisk

PUBLIC = [
    "ConditionalLawFamily", "DataFormatError", "DensityFamily", "DiffGrid",
    "DiscreteFactorSpec", "DiscreteJointDistribution", "DistortionFunction",
    "EmptyEventError", "FactorRiskError", "GaussianFactorSpec", "IncreasingSetPredicate",
    "JointSample", "LevelMap", "NullQuantileEventError", "PiecewiseLinearAllocation",
    "RankDeficientError", "RegressionFit", "Scenario", "ScenarioDistortion",
    "ScenarioPartition", "ScenarioWeighting", "StepCDF", "ValidationError", "VarBox",
    "allocation_value_check", "choquet_factor", "coes", "coherent", "coherent_sup",
    "compose_es_mean", "compose_var_distortion", "condition_a_check", "conditioning",
    "core", "covar", "diff_grid", "distortion", "distortion_rho", "errors", "es",
    "es_composition", "es_distortion", "es_on_event", "es_tail_density", "esssup",
    "find_matching_q", "from_sample", "gaussian_rho", "hl_bound", "identity_distortion",
    "inf_convolution", "linear", "linear_factor", "marginal", "mes", "norm_inv",
    "ols_fit", "partition_discrete", "partition_quantile_boxes",
    "piecewise_linear_distortion", "plain_var", "pred_custom", "pred_esssup_var",
    "pred_single_scenario", "pred_var_of_var", "psi_custom", "psi_es_on_box",
    "psi_indicator_var_var", "psi_lambda_of_var", "psi_mean", "psi_mean_of_es",
    "psi_mean_of_var", "quantile", "quantile_factor", "regression", "scalar", "sharing",
    "simulate", "tail_box", "var", "var_box_event", "var_distortion",
]


def test_public_names_are_pinned():
    assert sorted(factorrisk.__all__) == PUBLIC

