#ifndef CCDB_CROWD_WORKER_H_
#define CCDB_CROWD_WORKER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ccdb::crowd {

/// Behavioral profile of one simulated crowd worker. The profiles encode
/// the two populations the paper identified in Experiment 1: honest
/// workers who know ~26% of items and answer "don't know" otherwise, and
/// spammers who claim to know ~94% of items and answer with a fixed bias.
struct WorkerProfile {
  /// Country tag; Experiment 2's trusted pool (MakeExperiment2) holds no
  /// worker of a spammer country.
  std::string country;
  /// Probability the worker can (or claims to) judge a given item.
  double knowledge = 0.26;
  /// Probability of a correct judgment when the worker honestly judges an
  /// item they know.
  double accuracy = 0.85;
  /// When a dishonest worker fabricates an answer, probability of picking
  /// the positive option (the paper measured 56% "is a comedy").
  double positive_bias = 0.56;
  /// Honest workers use the "don't know" option for unknown items;
  /// dishonest ones fabricate an answer instead.
  bool honest = true;
  /// Judgments completed per minute (drives wall-clock simulation).
  double judgments_per_minute = 1.0;
  /// In lookup mode: probability the worker diligently reports the web
  /// consensus rather than guessing (Experiment 3's sloppy workers).
  double lookup_diligence = 0.95;
};

/// A pool of workers available to the simulated crowd-sourcing platform.
struct WorkerPool {
  std::vector<WorkerProfile> workers;
};

}  // namespace ccdb::crowd

#endif  // CCDB_CROWD_WORKER_H_
