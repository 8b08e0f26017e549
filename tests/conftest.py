from hypothesis import HealthCheck, settings

settings.register_profile(
    "debell",
    deadline=None,
    print_blob=True,  # a failure prints the blob that replays it with @reproduce_failure
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("debell")
