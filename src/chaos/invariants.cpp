#include "chaos/invariants.h"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace proxy::chaos {

namespace {

std::string OpName(const OpRecord& op) {
  std::ostringstream out;
  out << "c" << op.client << "/op" << op.op;
  return out.str();
}

}  // namespace

std::vector<Violation> CheckCounter(const History& history,
                                    std::int64_t final_value) {
  std::vector<Violation> out;

  // Acknowledged counter operations, i.e. those that returned a value.
  std::vector<const OpRecord*> acked;
  std::int64_t ok_incs = 0;
  std::int64_t unknown_incs = 0;
  for (const OpRecord& op : history.ops) {
    if (op.kind != OpKind::kCtrInc && op.kind != OpKind::kCtrRead) continue;
    if (op.outcome == OpOutcome::kOk) {
      acked.push_back(&op);
      if (op.kind == OpKind::kCtrInc) ++ok_incs;
    } else if (op.kind == OpKind::kCtrInc) {
      ++unknown_incs;
    }
  }

  // Unit increments are distinct: two acks of the same value is a lost
  // update (or a forged reply).
  std::unordered_map<std::int64_t, const OpRecord*> inc_values;
  for (const OpRecord* op : acked) {
    if (op->kind != OpKind::kCtrInc) continue;
    const auto [it, inserted] = inc_values.emplace(op->number, op);
    if (!inserted) {
      out.push_back({"counter-linearizable",
                     "increments " + OpName(*it->second) + " and " +
                         OpName(*op) + " both returned " +
                         std::to_string(op->number)});
    }
  }

  // Real-time order: if op1 completed before op2 started, op2's value
  // must not be smaller (and an increment must strictly exceed it). The
  // max over completed ops dominates, so one sweep suffices.
  std::vector<const OpRecord*> by_start = acked;
  std::sort(by_start.begin(), by_start.end(),
            [](const OpRecord* a, const OpRecord* b) {
              return a->start < b->start;
            });
  std::vector<const OpRecord*> by_end = acked;
  std::sort(by_end.begin(), by_end.end(),
            [](const OpRecord* a, const OpRecord* b) {
              return a->end < b->end;
            });
  std::size_t completed = 0;
  std::int64_t max_completed = std::numeric_limits<std::int64_t>::min();
  const OpRecord* max_op = nullptr;
  for (const OpRecord* op : by_start) {
    while (completed < by_end.size() && by_end[completed]->end < op->start) {
      if (by_end[completed]->number > max_completed) {
        max_completed = by_end[completed]->number;
        max_op = by_end[completed];
      }
      ++completed;
    }
    if (max_op == nullptr) continue;
    const std::int64_t floor =
        op->kind == OpKind::kCtrInc ? max_completed + 1 : max_completed;
    if (op->number < floor) {
      out.push_back({"counter-linearizable",
                     OpName(*op) + " returned " + std::to_string(op->number) +
                         " after " + OpName(*max_op) + " had completed with " +
                         std::to_string(max_completed)});
    }
  }

  // Final-state accounting: every acknowledged increment executed, every
  // failed one may have; nothing else moves the counter.
  if (final_value >= 0) {
    std::int64_t max_acked = 0;
    for (const OpRecord* op : acked) max_acked = std::max(max_acked, op->number);
    if (final_value < ok_incs || final_value > ok_incs + unknown_incs) {
      out.push_back({"counter-final-bound",
                     "final value " + std::to_string(final_value) +
                         " outside [" + std::to_string(ok_incs) + ", " +
                         std::to_string(ok_incs + unknown_incs) + "]"});
    }
    if (final_value < max_acked) {
      out.push_back({"counter-final-bound",
                     "final value " + std::to_string(final_value) +
                         " below acknowledged value " +
                         std::to_string(max_acked)});
    }
  }
  return out;
}

std::vector<Violation> CheckKv(const History& history) {
  std::vector<Violation> out;

  // Every value any Put *attempted* (an unacknowledged Put may still have
  // executed), with its start time.
  struct Written {
    SimTime start;
  };
  std::unordered_map<std::string, std::unordered_map<std::string, Written>>
      writes;  // key -> value -> earliest start
  for (const OpRecord& op : history.ops) {
    if (op.kind != OpKind::kKvPut) continue;
    auto& per_key = writes[op.key];
    const auto it = per_key.find(op.value);
    if (it == per_key.end()) {
      per_key.emplace(op.value, Written{op.start});
    } else {
      it->second.start = std::min(it->second.start, op.start);
    }
  }

  for (const OpRecord& op : history.ops) {
    if (op.kind != OpKind::kKvGet || op.outcome != OpOutcome::kOk) continue;
    if (!op.flag) continue;  // absent is always admissible
    const Written* written = nullptr;
    if (const auto key_it = writes.find(op.key); key_it != writes.end()) {
      if (const auto val_it = key_it->second.find(op.value);
          val_it != key_it->second.end()) {
        written = &val_it->second;
      }
    }
    if (written == nullptr) {
      out.push_back({"kv-integrity",
                     OpName(op) + " read \"" + op.value + "\" from \"" +
                         op.key + "\", which no Put ever wrote"});
      continue;
    }
    if (written->start >= op.end) {
      out.push_back({"kv-integrity",
                     OpName(op) + " read \"" + op.value + "\" from \"" +
                         op.key + "\" before its Put started"});
    }
  }
  return out;
}

std::vector<Violation> CheckLocks(const History& history) {
  std::vector<Violation> out;

  // Definite-hold intervals: [successful TryAcquire completion, first
  // subsequent Release *start* by the same client]. Outside that window
  // the client may have lost the lock without knowing (a timed-out
  // Release can still have executed), so only the definite window is
  // checked for mutual exclusion.
  struct Hold {
    std::uint32_t client;
    SimTime from;
    SimTime until;
  };
  std::map<std::string, std::vector<Hold>> holds;
  std::map<std::pair<std::string, std::uint32_t>, std::size_t> open;

  for (const OpRecord& op : history.ops) {
    if (op.kind == OpKind::kLockTry && op.outcome == OpOutcome::kOk &&
        op.flag) {
      auto& per_lock = holds[op.key];
      open[{op.key, op.client}] = per_lock.size();
      per_lock.push_back(
          Hold{op.client, op.end, std::numeric_limits<SimTime>::max()});
    } else if (op.kind == OpKind::kLockRelease) {
      const auto it = open.find({op.key, op.client});
      if (it == open.end()) continue;
      Hold& hold = holds[op.key][it->second];
      hold.until = std::min(hold.until, op.start);
      open.erase(it);
    }
  }

  for (auto& [name, intervals] : holds) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Hold& a, const Hold& b) { return a.from < b.from; });
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      const Hold& prev = intervals[i - 1];
      const Hold& cur = intervals[i];
      if (prev.client != cur.client && cur.from < prev.until) {
        out.push_back({"lock-mutex",
                       "lock \"" + name + "\" held by client " +
                           std::to_string(prev.client) + " and client " +
                           std::to_string(cur.client) +
                           " simultaneously at " + FormatDuration(cur.from)});
      }
    }
  }
  return out;
}

std::vector<Violation> CheckKvDurability(const History& history) {
  std::vector<Violation> out;

  // Acknowledged, epoch-stamped Puts. The workload never deletes, so once
  // a Put for a key is acknowledged, "absent" is only defensible from a
  // replica still serving an older epoch than the ack's.
  std::vector<const OpRecord*> puts;
  for (const OpRecord& op : history.ops) {
    if (op.kind == OpKind::kKvPut && op.outcome == OpOutcome::kOk &&
        op.epoch != 0) {
      puts.push_back(&op);
    }
  }

  for (const OpRecord& get : history.ops) {
    if (get.kind != OpKind::kKvGet || get.outcome != OpOutcome::kOk ||
        get.epoch == 0 || get.flag) {
      continue;  // only epoch-stamped absent reads can violate durability
    }
    for (const OpRecord* put : puts) {
      if (put->key != get.key) continue;
      if (put->group != get.group) continue;   // cross-group: kv-lost-key's job
      if (put->end >= get.start) continue;     // not real-time ordered
      if (get.epoch < put->epoch) continue;    // stale-epoch server: exempt
      out.push_back({"kv-durability",
                     OpName(get) + " (epoch " + std::to_string(get.epoch) +
                         ") found \"" + get.key + "\" absent after " +
                         OpName(*put) + " was acknowledged at epoch " +
                         std::to_string(put->epoch)});
      break;  // one witness per Get is enough
    }
  }
  return out;
}

std::vector<Violation> CheckKvEpochs(const History& history) {
  std::vector<Violation> out;

  // One bucket per serving group: replication epochs are per-group
  // counters (an unsharded history is a single "" bucket, so the
  // pre-shard behaviour is unchanged).
  std::map<std::string, std::vector<const OpRecord*>> by_group;
  for (const OpRecord& op : history.ops) {
    if (op.kind == OpKind::kKvPut && op.outcome == OpOutcome::kOk &&
        op.epoch != 0) {
      by_group[op.group].push_back(&op);
    }
  }

  for (const auto& [group, puts] : by_group) {
    // Split-brain: one acknowledging replica per epoch. Epochs only move
    // by view changes, and a view has a single primary, so two distinct
    // ackers under the same epoch means two nodes believed they led the
    // same view of this group.
    std::unordered_map<std::uint64_t, const OpRecord*> acker_by_epoch;
    for (const OpRecord* op : puts) {
      const auto [it, inserted] = acker_by_epoch.emplace(op->epoch, op);
      if (!inserted && it->second->acker != op->acker) {
        out.push_back({"kv-split-brain",
                       OpName(*it->second) + " and " + OpName(*op) +
                           " were acknowledged by different replicas under "
                           "epoch " +
                           std::to_string(op->epoch) +
                           (group.empty() ? "" : " of group " + group)});
      }
    }

    // Epoch regression: across real-time ordered acks, the serving epoch
    // never decreases. A fenced-off ex-primary that keeps acknowledging
    // writes at its old epoch after its successor's reign began lands
    // here.
    std::vector<const OpRecord*> by_start = puts;
    std::sort(by_start.begin(), by_start.end(),
              [](const OpRecord* a, const OpRecord* b) {
                return a->start < b->start;
              });
    std::vector<const OpRecord*> by_end = puts;
    std::sort(by_end.begin(), by_end.end(),
              [](const OpRecord* a, const OpRecord* b) {
                return a->end < b->end;
              });
    std::size_t completed = 0;
    std::uint64_t max_epoch = 0;
    const OpRecord* max_op = nullptr;
    for (const OpRecord* op : by_start) {
      while (completed < by_end.size() && by_end[completed]->end < op->start) {
        if (by_end[completed]->epoch > max_epoch) {
          max_epoch = by_end[completed]->epoch;
          max_op = by_end[completed];
        }
        ++completed;
      }
      if (max_op != nullptr && op->epoch < max_epoch) {
        out.push_back({"kv-epoch-regression",
                       OpName(*op) + " was acknowledged at epoch " +
                           std::to_string(op->epoch) + " after " +
                           OpName(*max_op) + " completed at epoch " +
                           std::to_string(max_epoch) +
                           (group.empty() ? "" : " in group " + group)});
      }
    }
  }
  return out;
}

std::vector<Violation> CheckKvLostKey(const History& history) {
  std::vector<Violation> out;

  // Router-recorded acknowledged Puts. The workload never deletes, so an
  // acknowledged key must stay readable through any number of shard
  // migrations — that is exactly the handoff chain of custody (freeze
  // before snapshot, install mirrored before ack, release only with a
  // committed-epoch proof) this checker pins down.
  std::vector<const OpRecord*> puts;
  for (const OpRecord& op : history.ops) {
    if (op.kind == OpKind::kKvPut && op.outcome == OpOutcome::kOk &&
        !op.group.empty()) {
      puts.push_back(&op);
    }
  }

  for (const OpRecord& get : history.ops) {
    if (get.kind != OpKind::kKvGet || get.outcome != OpOutcome::kOk ||
        get.group.empty() || get.flag) {
      continue;  // only router-recorded absent reads can lose a key
    }
    for (const OpRecord* put : puts) {
      if (put->key != get.key) continue;
      if (put->end >= get.start) continue;  // not real-time ordered
      if (get.shard_epoch != 0 && put->shard_epoch != 0 &&
          get.shard_epoch < put->shard_epoch) {
        continue;  // answered under an older ownership regime: exempt
      }
      if (get.group == put->group && get.epoch < put->epoch) {
        continue;  // stale in-group replica: kv-durability's exemption
      }
      out.push_back({"kv-lost-key",
                     OpName(get) + " (group " + get.group + ", shard epoch " +
                         std::to_string(get.shard_epoch) + ") found \"" +
                         get.key + "\" absent after " + OpName(*put) +
                         " was acknowledged by " + put->group +
                         " at shard epoch " +
                         std::to_string(put->shard_epoch)});
      break;  // one witness per Get is enough
    }
  }
  return out;
}

std::vector<Violation> CheckKvSplitShard(const History& history) {
  std::vector<Violation> out;

  // One shard, one owner: a shard-ownership epoch names exactly one
  // custody interval, granted by the map service to exactly one group.
  std::map<std::pair<std::uint32_t, std::uint64_t>, const OpRecord*> owners;
  for (const OpRecord& op : history.ops) {
    if (op.kind != OpKind::kKvPut || op.outcome != OpOutcome::kOk ||
        op.group.empty()) {
      continue;
    }
    if (op.shard_epoch == 0) {
      // With fencing on, an ack implies ownership and a nonzero stamp: a
      // zero stamp means a group accepted a write to a shard it had
      // already released (or never held).
      out.push_back({"kv-split-shard",
                     OpName(op) + " was acknowledged by " + op.group +
                         " for shard " + std::to_string(op.shard) +
                         " with no ownership claim (shard epoch 0)"});
      continue;
    }
    const auto [it, inserted] =
        owners.emplace(std::make_pair(op.shard, op.shard_epoch), &op);
    if (!inserted && it->second->group != op.group) {
      out.push_back({"kv-split-shard",
                     OpName(*it->second) + " (group " + it->second->group +
                         ") and " + OpName(op) + " (group " + op.group +
                         ") were both acknowledged for shard " +
                         std::to_string(op.shard) + " at shard epoch " +
                         std::to_string(op.shard_epoch)});
    }
  }
  return out;
}

std::vector<Violation> CheckAdmission(
    const std::vector<rpc::AdmissionEvent>& log, std::size_t queue_capacity,
    std::size_t queue_peak) {
  std::vector<Violation> out;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const rpc::AdmissionEvent& ev = log[i];
    // A fast-reject with a strictly worse waiter still queued means the
    // server preferred old low-priority work over a new high-priority
    // arrival: the definition of a priority inversion. worst_waiting ==
    // kPriorityLevels encodes an empty queue (rejecting with nothing to
    // evict is legitimate when queue_capacity is 0).
    if (ev.action == rpc::AdmissionEvent::Action::kReject &&
        ev.worst_waiting != rpc::kPriorityLevels &&
        ev.worst_waiting > static_cast<std::uint8_t>(ev.priority)) {
      out.push_back(
          {"no-priority-inversion",
           "admission event #" + std::to_string(i) + " at t=" +
               std::to_string(ev.at) + ": rejected " +
               rpc::PriorityName(ev.priority) + " while a P" +
               std::to_string(ev.worst_waiting) + " waiter sat in the queue"});
    }
    if (ev.depth > queue_capacity) {
      out.push_back({"bounded-queue",
                     "admission event #" + std::to_string(i) +
                         " observed queue depth " + std::to_string(ev.depth) +
                         " > capacity " + std::to_string(queue_capacity)});
    }
  }
  if (queue_peak > queue_capacity) {
    out.push_back({"bounded-queue",
                   "queue high-water mark " + std::to_string(queue_peak) +
                       " > capacity " + std::to_string(queue_capacity)});
  }
  return out;
}

std::vector<Violation> CheckShedNotExecuted(const History& history) {
  std::vector<Violation> out;
  // Unique value -> the shed Put that wrote it. Values are unique per
  // generator op, so one lookup table suffices.
  std::unordered_map<std::string, const OpRecord*> shed_values;
  for (const OpRecord& op : history.ops) {
    if (op.kind == OpKind::kKvPut && op.outcome == OpOutcome::kShed) {
      shed_values.emplace(op.value, &op);
    }
  }
  if (shed_values.empty()) return out;
  for (const OpRecord& op : history.ops) {
    if (op.kind != OpKind::kKvGet || op.outcome != OpOutcome::kOk ||
        !op.flag) {
      continue;
    }
    const auto it = shed_values.find(op.value);
    if (it != shed_values.end() && it->second->key == op.key) {
      out.push_back(
          {"shed-not-executed",
           OpName(op) + " read value \"" + op.value + "\" of key \"" +
               op.key + "\" that " + OpName(*it->second) +
               " wrote in a Put the server claims it shed"});
    }
  }
  return out;
}

std::vector<Violation> CheckRetryAmplification(
    std::uint64_t retransmissions, std::uint64_t ok_replies,
    std::uint64_t destinations, double initial_tokens,
    double refill_per_success, const std::string& who) {
  std::vector<Violation> out;
  // Token-bucket conservation: every retransmission spends one token,
  // tokens only arrive as `initial` (per destination) plus the
  // per-success refill. "+1" absorbs the fractional token a client may
  // legitimately still be holding.
  const double income = initial_tokens * static_cast<double>(destinations) +
                        refill_per_success * static_cast<double>(ok_replies) +
                        1.0;
  if (static_cast<double>(retransmissions) > income) {
    out.push_back(
        {"bounded-retry-amplification",
         who + ": " + std::to_string(retransmissions) +
             " retransmissions exceed the retry budget's total income " +
             std::to_string(income) + " (" + std::to_string(ok_replies) +
             " ok replies over " + std::to_string(destinations) +
             " destinations) — retry governors are not holding"});
  }
  return out;
}

std::vector<Violation> CheckFramesDestroyed(std::size_t live_frames) {
  std::vector<Violation> out;
  if (live_frames != 0) {
    out.push_back({"frames-destroyed",
                   std::to_string(live_frames) +
                       " coroutine frame(s) still alive after the run's "
                       "Runtime was destroyed: some root escaped the "
                       "scheduler's registry"});
  }
  return out;
}

}  // namespace proxy::chaos
