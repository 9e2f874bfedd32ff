from hypothesis import HealthCheck, settings

settings.register_profile(
    "optomo",
    deadline=None,
    derandomize=True,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("optomo")

