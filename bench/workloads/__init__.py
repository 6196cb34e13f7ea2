"""The four workloads; ``WORKLOADS`` maps each name to its ``run``."""

from bench.workloads import event_churn, http_recommend, rank_large_pool, train_epochs

WORKLOADS = {
    "http_recommend": http_recommend.run,
    "rank_large_pool": rank_large_pool.run,
    "train_epochs": train_epochs.run,
    "event_churn": event_churn.run,
}
