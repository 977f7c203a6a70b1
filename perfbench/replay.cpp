// Wall-clock replay of one validator's commit path (workloads
// transfer_bigstate and dapp_flood). One thread plays validator rank 0
// of an 8-proposer committee, calling the program in ValidatorNode's order:
// client ingest, proposal, remote proposals, commit. Consensus is not
// replayed (every proposal counts as decided) and no network delay is
// injected, so latency here is processor time only. Every input is generated
// from the seed and signed before the timed phase starts.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "crypto/keccak.hpp"
#include "crypto/sha256.hpp"
#include "evm/contracts.hpp"
#include "pool/txpool.hpp"
#include "srbb/oracle.hpp"
#include "srbb/validator.hpp"
#include "txn/block.hpp"
#include "txn/pipeline.hpp"

namespace perfbench {

using namespace srbb;

namespace {

constexpr std::uint32_t kProposers = 8;
constexpr std::uint32_t kSelf = 0;
constexpr std::uint32_t kByzantine = 7;  // dapp_flood's flooding proposer

// Client transactions per block; eight blocks make a ~2048-tx superblock.
struct Shape {
  bool dapp = false;
  std::uint32_t txs_per_block = 256;
  std::uint32_t senders_per_proposer = 512;  // each sends every other index
  std::size_t extra_accounts = 0;  // pre-funded non-senders (state size)
  std::uint32_t bad_senders = 128;  // dapp_flood: corrupted-signature senders
  std::uint32_t broke_senders = 128;  // dapp_flood: zero-balance senders
  double own_bad_sig_share = 0.0;
  std::uint32_t warmup = 1;  // superblocks run before the timed phase
  std::uint32_t superblocks = 0;  // inputs generated before the run
};

Shape shape_for(const Options& options) {
  Shape shape;
  shape.dapp = options.workload == "dapp_flood";
  if (options.tiny) {
    shape.txs_per_block = 32;
    shape.senders_per_proposer = 32;
    shape.bad_senders = 16;
    shape.broke_senders = 16;
    shape.superblocks = 4;
  }
  if (shape.dapp) {
    // ~10^4 accounts in all: small enough that the state root is cheap.
    const std::size_t total = options.tiny ? 1'000 : 10'000;
    shape.extra_accounts = total - (kProposers - 1) * shape.senders_per_proposer -
                           shape.bad_senders;
    shape.own_bad_sig_share = 0.02;
  } else {
    // Recipients spread over ~2x10^5 pre-funded accounts.
    shape.extra_accounts = options.tiny ? 1'000 : 200'000;
  }
  if (!options.tiny) {
    // A quarter more superblocks than the measured window needs at the
    // seed commit's speed (about 1 and 1.7 superblocks/s on 4 cores); a
    // faster program gets more, signed between iterations.
    const double per_second = shape.dapp ? 2.0 : 1.2;
    shape.superblocks = shape.warmup + 3 +
                        static_cast<std::uint32_t>(options.seconds * per_second * 1.25);
  }
  return shape;
}

enum class Expect : std::uint8_t {
  kCommit,   // valid, EVM frame succeeds
  kReject,   // own client, refused by validate_one
  kDiscard,  // in a remote block, discarded by execute
};

enum class Kind : std::uint8_t { kTransfer, kTrade, kRide, kBuy, kRouter };

struct Plan {
  std::uint32_t superblock = 0;
  std::uint32_t signer = 0;  // index into Inputs::signers
  Kind kind = Kind::kTransfer;
  bool corrupt = false;      // flip a signature byte after signing
  Expect expect = Expect::kCommit;
  txn::TxParams params;
  Hash32 hash;
};

// The DIABLO DApps at the addresses, and with the calldata shapes, that
// diablo::run_experiment uses (its helpers are private to runner.cpp).
const Address kExchange = [] { Address a; a[0] = 0xDA; a[19] = 1; return a; }();
const Address kMobility = [] { Address a; a[0] = 0xDA; a[19] = 2; return a; }();
const Address kTicketing = [] { Address a; a[0] = 0xDA; a[19] = 3; return a; }();
const Address kKvStore = [] { Address a; a[0] = 0xDA; a[19] = 4; return a; }();
const Address kToken = [] { Address a; a[0] = 0xDA; a[19] = 5; return a; }();
const Address kRouter = [] { Address a; a[0] = 0xDA; a[19] = 6; return a; }();
const U256 kSenderFunds{1'000'000'000'000'000ull};
const U256 kExtraFunds{1'000'000'000ull};
const U256 kTokenFunds{1'000'000'000ull};

/// Router token ledger slot keccak(holder word ++ 0): the token contract's
/// balance mapping, kept in router storage under DELEGATECALL.
Hash32 token_slot(const Address& holder) {
  Bytes preimage;
  append(preimage, U256::from_be(holder.view()).be_bytes());
  append(preimage, U256{0}.be_bytes());
  return crypto::Keccak256::hash(BytesView{preimage});
}

Address random_address(Rng& rng) {
  Address a;
  for (std::size_t i = 0; i < Address::size(); i += 8) {
    const std::uint64_t word = rng.next_u64();
    for (std::size_t b = 0; b < 8 && i + b < Address::size(); ++b) {
      a[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  return a;
}

struct Inputs {
  node::GenesisSpec genesis;
  std::vector<crypto::Identity> signers;
  std::vector<std::uint8_t> signer_role;  // 0 honest, 1 bad-sig, 2 broke
  std::vector<Address> extra;             // pre-funded non-senders
  std::vector<Plan> plans;                // superblock-major, then rank, slot
  // Per superblock: own client wire transactions and the remote block
  // frames in rank order 1..7.
  std::vector<std::vector<Bytes>> own_wires;
  std::vector<std::vector<Bytes>> remote_frames;
  std::vector<crypto::PublicKey> proposer_keys;
  crypto::Identity self;

  std::uint32_t superblocks() const {
    return static_cast<std::uint32_t>(own_wires.size());
  }
};

/// Deterministic input stream: identities and genesis at construction, then
/// superblocks in order, signed in chunks on at most nproc threads. One RNG
/// stream and one nonce ledger carry across chunks, so a chunked stream is
/// the same as one generated at once and topping it up mid-run (outside the
/// timed iterations) keeps the inputs a pure function of the seed.
class Generator {
 public:
  Generator(const Shape& shape, std::uint64_t seed)
      : shape_(shape), rng_(seed ^ 0x5EBB'BE4C'0000'0000ull) {
    const crypto::SignatureScheme& scheme = crypto::SignatureScheme::ed25519();
    const std::uint32_t honest_proposers =
        shape.dapp ? kProposers - 1 : kProposers;
    honest_ = honest_proposers * shape.senders_per_proposer;
    bad_ = shape.dapp ? shape.bad_senders : 0;
    broke_ = shape.dapp ? shape.broke_senders : 0;
    const std::uint64_t key_base = seed * 0x1'0000'0000ull;
    in.signers.resize(honest_ + bad_ + broke_);
    in.signer_role.resize(in.signers.size(), 0);
    {
      ThreadPool workers{available_threads()};
      workers.parallel_for(in.signers.size(), [&](std::size_t i) {
        in.signers[i] = scheme.make_identity(key_base + i);
      });
    }
    for (std::uint32_t i = 0; i < honest_ + bad_; ++i) {
      in.genesis.accounts.push_back({in.signers[i].address(), kSenderFunds});
    }
    for (std::uint32_t i = honest_; i < honest_ + bad_; ++i) in.signer_role[i] = 1;
    for (std::uint32_t i = honest_ + bad_; i < in.signers.size(); ++i) {
      in.signer_role[i] = 2;
    }
    in.extra.reserve(shape.extra_accounts);
    for (std::size_t i = 0; i < shape.extra_accounts; ++i) {
      in.extra.push_back(random_address(rng_));
      in.genesis.accounts.push_back({in.extra.back(), kExtraFunds});
    }
    if (shape.dapp) {
      in.genesis.contracts.push_back({kExchange, evm::exchange_contract().runtime_code});
      in.genesis.contracts.push_back({kMobility, evm::mobility_contract().runtime_code});
      in.genesis.contracts.push_back({kTicketing, evm::ticketing_contract().runtime_code});
      in.genesis.contracts.push_back({kKvStore, evm::kvstore_contract().runtime_code});
      in.genesis.contracts.push_back({kToken, evm::token_contract().runtime_code});
      node::GenesisSpec::PredeployedContract router{
          kRouter, evm::router_contract(kKvStore, kToken).runtime_code, {}};
      for (std::uint32_t i = 0; i < honest_; ++i) {
        router.storage_slots.push_back(
            {token_slot(in.signers[i].address()), kTokenFunds});
      }
      in.genesis.contracts.push_back(std::move(router));
    }
    in.self = scheme.make_identity(kSelf);
    for (std::uint32_t r = 0; r < kProposers; ++r) {
      proposers_.push_back(scheme.make_identity(r));
      in.proposer_keys.push_back(proposers_.back().public_key);
    }
    nonces_.assign(in.signers.size(), 0);
  }

  /// Plans, signs and frames `count` more superblocks.
  void extend(std::uint32_t count);

  Inputs in;

 private:
  void plan_superblock(std::uint32_t k);

  const Shape& shape_;
  Rng rng_;
  std::uint32_t honest_ = 0, bad_ = 0, broke_ = 0;
  std::vector<crypto::Identity> proposers_;
  std::vector<std::uint64_t> nonces_;
  std::uint64_t call_id_ = 0;  // unique calldata counter (ride ids, seats)
};

void Generator::plan_superblock(std::uint32_t k) {
  for (std::uint32_t p = 0; p < kProposers; ++p) {
    for (std::uint32_t j = 0; j < shape_.txs_per_block; ++j) {
      Plan plan;
      plan.superblock = k;
      txn::TxParams& params = plan.params;
      params.gas_price = U256{1};
      if (shape_.dapp && p == kByzantine) {
        // §V-B flooding: half from zero-balance senders, half carrying a
        // corrupted signature from funded accounts that never send valid
        // transactions. The value varies so no two repeat a hash.
        const bool zero_balance = j % 2 == 0;
        plan.signer = zero_balance ? honest_ + bad_ + (j / 2) % broke_
                                   : honest_ + (j / 2) % bad_;
        plan.corrupt = !zero_balance;
        plan.expect = Expect::kDiscard;
        params.kind = txn::TxKind::kTransfer;
        params.nonce = 0;
        params.gas_limit = 21'000;
        params.to = in.extra[rng_.next_below(in.extra.size())];
        params.value = U256{1 + k};
      } else {
        const std::uint32_t slot =
            (k * shape_.txs_per_block + j) % shape_.senders_per_proposer;
        plan.signer = p * shape_.senders_per_proposer + slot;
        if (p == kSelf && shape_.own_bad_sig_share > 0 &&
            rng_.next_bool(shape_.own_bad_sig_share)) {
          plan.corrupt = true;
          plan.expect = Expect::kReject;
        }
        params.nonce = nonces_[plan.signer];
        if (plan.expect == Expect::kCommit) ++nonces_[plan.signer];
        if (!shape_.dapp) {
          params.kind = txn::TxKind::kTransfer;
          params.gas_limit = 21'000;
          params.to = in.extra[rng_.next_below(in.extra.size())];
          params.value = U256{1 + rng_.next_below(1000)};
        } else {
          params.kind = txn::TxKind::kInvoke;
          params.gas_limit = 200'000;
          const std::uint64_t i = call_id_++;
          switch (rng_.next_below(4)) {
            case 0:
              plan.kind = Kind::kTrade;
              params.to = kExchange;
              // Five hot stocks: the shared-slot regime.
              params.data = evm::encode_call(
                  "trade(uint256,uint256,uint256)",
                  {U256{i % 5}, U256{100 + i % 50}, U256{1 + i % 9}});
              break;
            case 1:
              plan.kind = Kind::kRide;
              params.to = kMobility;
              params.data = evm::encode_call("ride(uint256,uint256)",
                                             {U256{i}, U256{10 + i % 40}});
              break;
            case 2:
              plan.kind = Kind::kBuy;
              params.to = kTicketing;
              // Unique seats, so an honest buy never reverts.
              params.data = evm::encode_call(
                  "buy(uint256,uint256)", {U256{i / 50'000}, U256{i % 50'000}});
              break;
            default:
              plan.kind = Kind::kRouter;
              params.to = kRouter;
              params.data = evm::encode_call("rtransfer(uint256,uint256)",
                                             {U256{0x707}, U256{1}});
              break;
          }
        }
      }
      in.plans.push_back(std::move(plan));
    }
  }
}

void Generator::extend(std::uint32_t count) {
  const crypto::SignatureScheme& scheme = crypto::SignatureScheme::ed25519();
  const std::uint32_t first_k = in.superblocks();
  const std::size_t first_plan = in.plans.size();
  for (std::uint32_t k = first_k; k < first_k + count; ++k) plan_superblock(k);

  ThreadPool workers{available_threads()};
  const std::size_t added = in.plans.size() - first_plan;
  std::vector<Bytes> wires(added);
  std::vector<txn::TxPtr> ptrs(added);
  workers.parallel_for(added, [&](std::size_t n) {
    Plan& plan = in.plans[first_plan + n];
    txn::Transaction tx =
        txn::make_signed(plan.params, in.signers[plan.signer], scheme);
    // The flipped byte depends on the index, so a sender that repeats a
    // corrupted transaction at the same nonce still sends distinct bytes.
    if (plan.corrupt) tx.signature[1 + plan.superblock % 62] ^= 0x40;
    wires[n] = tx.encode();
    ptrs[n] = txn::make_tx_ptr(std::move(tx), wires[n]);
    plan.hash = ptrs[n]->hash;
  });

  const std::size_t per_superblock = kProposers * shape_.txs_per_block;
  in.own_wires.resize(first_k + count);
  in.remote_frames.resize(first_k + count);
  for (std::uint32_t c = 0; c < count; ++c) {
    in.remote_frames[first_k + c].resize(kProposers - 1);
    for (std::uint32_t j = 0; j < shape_.txs_per_block; ++j) {
      in.own_wires[first_k + c].push_back(
          std::move(wires[c * per_superblock + kSelf * shape_.txs_per_block + j]));
    }
  }
  workers.parallel_for(
      static_cast<std::size_t>(count) * (kProposers - 1), [&](std::size_t job) {
        const std::uint32_t c = static_cast<std::uint32_t>(job / (kProposers - 1));
        const std::uint32_t rank =
            1 + static_cast<std::uint32_t>(job % (kProposers - 1));
        const std::size_t first = c * per_superblock + rank * shape_.txs_per_block;
        std::vector<txn::TxPtr> txs(ptrs.begin() + first,
                                    ptrs.begin() + first + shape_.txs_per_block);
        const std::uint32_t k = first_k + c;
        const txn::Block block = txn::make_block(
            k, rank, k, Hash32{}, std::move(txs), proposers_[rank], scheme);
        in.remote_frames[k][rank - 1] = txn::encode_block(block);
      });
}

/// SHA-256 over every wire byte of superblocks [0, count), in order.
Hash32 wire_digest(const Inputs& in, std::uint32_t count) {
  crypto::Sha256 digest;
  for (std::uint32_t k = 0; k < count; ++k) {
    for (const Bytes& wire : in.own_wires[k]) digest.update(wire);
    for (const Bytes& frame : in.remote_frames[k]) digest.update(frame);
  }
  return digest.finish();
}

/// The program's set-up for one validator: the execution oracle built from
/// genesis, the eager-validation pipeline and the pool, all with the
/// defaults ValidatorNode uses (no pipeline thread pool).
struct Validator {
  node::ValidatorConfig defaults;
  node::ExecutionOracle oracle;
  txn::ValidationPipeline pipeline;
  pool::TxPool pool;

  explicit Validator(const node::GenesisSpec& genesis)
      : oracle(genesis, evm::BlockContext{}, crypto::SignatureScheme::ed25519(),
               state::StateConfig{}),
        pipeline(crypto::SignatureScheme::ed25519(), defaults.validation),
        pool(defaults.pool) {}
};

/// What one superblock iteration recorded for the metrics and the checks.
struct Iteration {
  std::uint32_t index = 0;
  bool timed = false;
  bool traced = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  const node::IndexExecResult* result = nullptr;
  std::vector<txn::BlockPtr> blocks;
  std::vector<Hash32> rejected;           // own txs refused at validate_one
  std::vector<double> own_latency_ms;     // committed own txs
  std::int32_t root_span = -1;  // spans root_span..last_span are this index's
  std::int32_t last_span = -1;
  bool headers_ok = true;
};

struct Checked {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Checked check_outputs(const Shape& shape, const Inputs& in,
                      const node::ExecutionOracle& oracle,
                      const std::vector<Iteration>& iterations,
                      RunReport& report) {
  Checked checked;
  std::unordered_map<Hash32, std::size_t, Hash32Hasher> by_hash;
  const std::size_t per_superblock = kProposers * shape.txs_per_block;
  const std::size_t processed = iterations.size() * per_superblock;
  by_hash.reserve(processed);
  for (std::size_t i = 0; i < processed; ++i) by_hash.emplace(in.plans[i].hash, i);
  checked.attempted = processed;

  std::vector<std::uint8_t> seen(processed, 0);
  std::uint64_t tx_failures = 0;
  std::vector<U256> fees(in.signers.size());
  std::vector<std::uint64_t> router_calls(in.signers.size(), 0);
  const auto mismatch = [&](const std::string& what) {
    ++tx_failures;
    report.fail(what);
  };
  for (const Iteration& it : iterations) {
    if (!it.headers_ok) report.fail("remote block failed decode/certificate check");
    for (const Hash32& h : it.rejected) {
      const auto found = by_hash.find(h);
      if (found == by_hash.end()) { mismatch("unknown rejected tx"); continue; }
      seen[found->second] = 1;
      if (in.plans[found->second].expect != Expect::kReject) {
        mismatch("valid own tx refused at validate_one: " + h.hex());
      }
    }
    for (std::size_t b = 0; b < it.blocks.size(); ++b) {
      const auto& outcomes = it.result->blocks[b].outcomes;
      for (std::size_t t = 0; t < it.blocks[b]->txs.size(); ++t) {
        const node::TxOutcome& outcome = outcomes[t];
        const auto found = by_hash.find(outcome.hash);
        if (found == by_hash.end() || seen[found->second]) {
          mismatch("unexpected or repeated tx in superblock " +
                   std::to_string(it.index));
          continue;
        }
        seen[found->second] = 1;
        const Plan& plan = in.plans[found->second];
        // An own transaction that validate_one should have refused must
        // never reach a block.
        const bool ok = plan.expect == Expect::kCommit ? outcome.valid && outcome.executed_ok
                        : plan.expect == Expect::kDiscard ? !outcome.valid
                                                          : false;
        if (!ok) {
          mismatch("outcome mismatch (valid=" + std::to_string(outcome.valid) +
                   " ok=" + std::to_string(outcome.executed_ok) + ") for " +
                   outcome.hash.hex());
          continue;
        }
        if (outcome.valid) {
          fees[plan.signer] = fees[plan.signer] + outcome.fee;
          if (plan.kind == Kind::kRouter) ++router_calls[plan.signer];
          if (plan.kind == Kind::kTransfer && outcome.gas_used != 21'000) {
            mismatch("transfer gas_used " + std::to_string(outcome.gas_used));
          }
        }
      }
    }
  }
  for (std::size_t i = 0; i < processed; ++i) {
    if (!seen[i]) mismatch("tx neither committed, discarded nor rejected: " +
                           in.plans[i].hash.hex());
  }

  // Final state against the generator's shadow ledger.
  std::vector<std::uint64_t> nonces(in.signers.size(), 0);
  std::vector<U256> spent(in.signers.size());
  std::unordered_map<Address, U256, AddressHasher> received;
  for (std::size_t i = 0; i < processed; ++i) {
    const Plan& plan = in.plans[i];
    if (plan.expect != Expect::kCommit) continue;
    ++nonces[plan.signer];
    spent[plan.signer] = spent[plan.signer] + plan.params.value;
    if (plan.kind == Kind::kTransfer) {
      received[plan.params.to] = received[plan.params.to] + plan.params.value;
    }
  }
  std::uint64_t state_failures = 0;
  const state::StateDB& db = oracle.db();
  for (std::size_t s = 0; s < in.signers.size(); ++s) {
    const Address addr = in.signers[s].address();
    const U256 genesis = in.signer_role[s] == 2 ? U256{0} : kSenderFunds;
    // Transfers pay exactly 21000 gas at price 1 (checked per outcome
    // above); contract calls pay the fee their receipt reports.
    const U256 expected = genesis - spent[s] - fees[s];
    if (db.nonce(addr) != nonces[s] || db.balance(addr) != expected) {
      ++state_failures;
      report.fail("sender " + std::to_string(s) + " nonce/balance mismatch");
    }
    if (shape.dapp && in.signer_role[s] == 0 &&
        db.storage(kRouter, token_slot(addr)) !=
            kTokenFunds - U256{router_calls[s]}) {
      ++state_failures;
      report.fail("router ledger mismatch for sender " + std::to_string(s));
    }
  }
  // Every recipient of a committed transfer plus a sample of the rest.
  for (std::size_t i = 0; i < in.extra.size(); ++i) {
    const Address& addr = in.extra[i];
    const auto got = received.find(addr);
    if (got == received.end() && i % 64 != 0) continue;
    const U256 expected = kExtraFunds + (got == received.end() ? U256{0} : got->second);
    if (db.balance(addr) != expected || db.nonce(addr) != 0) {
      ++state_failures;
      report.fail("account balance mismatch: " + addr.hex());
    }
  }
  checked.failed = std::min<std::uint64_t>(processed, tx_failures + state_failures);
  return checked;
}

void set_layer_metrics(const SpanLog& spans, const std::vector<Iteration>& iterations,
                       const Validator& v, std::uint64_t root_computed_before,
                       std::uint64_t root_deferred_before, RunReport& report) {
  const std::vector<std::int64_t> self = spans.self_times();
  std::map<std::string, std::vector<double>> us;  // per-call self time, µs
  std::map<std::string, double> layer_ms;         // summed self time
  std::vector<double> execute_ms, execute_us_per_tx, outside_ms, coverage_pct,
      wait_ms, discarded, rejects;
  txn::ParallelExecStats par;
  std::uint64_t valid = 0;
  for (const Iteration& it : iterations) {
    if (!it.traced || !it.timed) continue;
    std::int64_t take_start = 0, exec_start = 0, exec_end = 0, first_decode = -1;
    std::int64_t covered = 0;
    std::vector<std::int64_t> added;
    for (std::int32_t s = it.root_span; s <= it.last_span; ++s) {
      const Span& span = spans.spans()[static_cast<std::size_t>(s)];
      const std::string name = span.name;
      const double self_us = static_cast<double>(self[static_cast<std::size_t>(s)]) / 1e3;
      us[name].push_back(self_us);
      layer_ms[name.substr(0, name.find('.'))] += self_us / 1e3;
      if (s == it.root_span) continue;
      if (name == "codec.tx_decode" && first_decode < 0) first_decode = span.start_ns;
      if (name == "pool.add") added.push_back(span.end_ns);
      if (name == "pool.take") take_start = span.start_ns;
      if (name == "srbb.execute") { exec_start = span.start_ns; exec_end = span.end_ns; }
    }
    for (std::int32_t s = it.root_span; s <= it.last_span; ++s) {
      const Span& span = spans.spans()[static_cast<std::size_t>(s)];
      if (s != it.root_span && span.start_ns >= first_decode && span.end_ns <= exec_end) {
        covered += span.end_ns - span.start_ns;
      }
    }
    for (const std::int64_t at : added) wait_ms.push_back(static_cast<double>(take_start - at) / 1e6);
    const double exec = static_cast<double>(exec_end - exec_start) / 1e6;
    const std::size_t txs = [&] {
      std::size_t n = 0;
      for (const auto& block : it.blocks) n += block->txs.size();
      return n;
    }();
    execute_ms.push_back(exec);
    execute_us_per_tx.push_back(exec * 1e3 / static_cast<double>(std::max<std::size_t>(1, txs)));
    outside_ms.push_back(static_cast<double>(self[static_cast<std::size_t>(it.root_span)]) / 1e6);
    coverage_pct.push_back(100.0 * static_cast<double>(covered) /
                           static_cast<double>(std::max<std::int64_t>(1, exec_end - first_decode)));
    discarded.push_back(static_cast<double>(it.result->total_invalid));
    rejects.push_back(static_cast<double>(it.rejected.size()));
    par.speculative_runs += it.result->parallel.speculative_runs;
    par.aborts += it.result->parallel.aborts;
    par.fallback_txs += it.result->parallel.fallback_txs;
    valid += it.result->total_valid;
  }
  const auto med_us = [&](const char* name) { return median(us[name]); };
  report.set("srbb.execute_ms", median(execute_ms), "ms");
  report.set("srbb.execute_us_per_tx", median(execute_us_per_tx), "us");
  report.set("srbb.discarded", median(discarded), "count");
  const node::ExecutionOracle::RootStats& roots = v.oracle.root_stats();
  report.set("state.roots_computed", static_cast<double>(roots.computed - root_computed_before), "count");
  report.set("state.roots_deferred", static_cast<double>(roots.deferred - root_deferred_before), "count");
  report.set("state.accounts", static_cast<double>(v.oracle.db().account_count()), "count");
  report.set("txn.spec_runs", static_cast<double>(par.speculative_runs), "count");
  report.set("txn.spec_aborts", static_cast<double>(par.aborts), "count");
  report.set("txn.fallback_txs", static_cast<double>(par.fallback_txs), "count");
  report.set("txn.spec_useful_ratio",
             par.speculative_runs == 0 ? 0.0
                                       : static_cast<double>(valid) /
                                             static_cast<double>(par.speculative_runs),
             "ratio");
  report.set("txn.validate_us", med_us("txn.validate"), "us");
  report.set("txn.validate_rejects", median(rejects), "count");
  report.set("codec.tx_decode_us", med_us("codec.tx_decode"), "us");
  report.set("codec.block_decode_us", med_us("codec.block_decode"), "us");
  report.set("codec.block_encode_us", med_us("codec.block_encode"), "us");
  report.set("crypto.block_sign_us", med_us("crypto.block_sign"), "us");
  report.set("crypto.cert_verify_us", med_us("crypto.cert_verify"), "us");
  report.set("pool.add_us", med_us("pool.add"), "us");
  report.set("pool.take_us", med_us("pool.take"), "us");
  report.set("pool.remove_us", med_us("pool.remove"), "us");
  report.set("pool.wait_ms", median(wait_ms), "ms");
  report.set("pool.drops", static_cast<double>(v.pool.dropped_full() + v.pool.dropped_expired()), "count");
  report.set("replay.outside_spans_ms", median(outside_ms), "ms");
  report.set("replay.span_coverage_pct", median(coverage_pct), "%");

  double total_ms = 0;
  for (const auto& [layer, ms] : layer_ms) total_ms += ms;
  std::printf("layer self time over traced superblocks (ms, share):\n");
  for (const auto& [layer, ms] : layer_ms) {
    std::printf("  %-8s %10.2f  %5.1f%%\n", layer.c_str(), ms,
                total_ms > 0 ? 100.0 * ms / total_ms : 0.0);
  }
}

}  // namespace

void run_replay(const Options& options, RunReport& report) {
  const Shape shape = shape_for(options);
  const crypto::SignatureScheme& scheme = crypto::SignatureScheme::ed25519();

  // --- inputs: identities and genesis (untimed) -----------------------------
  std::int64_t gen_ns = now_ns();
  Generator gen{shape, options.seed};
  const Inputs& in = gen.in;
  gen_ns = now_ns() - gen_ns;

  // --- program set-up, repeated; the median is setup_s ---------------------
  // At least five set-ups, more while they take under a second in all, so a
  // small genesis still gives a steady median. It runs before the signing
  // below, on a heap the generator's worker threads have not churned.
  std::vector<double> setup_s;
  std::unique_ptr<Validator> v;
  const std::int64_t setup_start = now_ns();
  while (setup_s.size() < (options.tiny ? 1u : 5u) ||
         (!options.tiny && now_ns() - setup_start < 1'000'000'000 && setup_s.size() < 200)) {
    v.reset();
    const std::int64_t t0 = now_ns();
    v = std::make_unique<Validator>(in.genesis);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // --- inputs: signed superblocks (untimed; at most nproc threads) ----------
  const std::int64_t sign_start = now_ns();
  gen.extend(shape.superblocks);
  gen_ns += now_ns() - sign_start;
  std::printf("inputs: %u superblocks x %u txs, %zu genesis accounts, "
              "generated+signed in %.2f s, wire digest %s\n",
              shape.superblocks, kProposers * shape.txs_per_block,
              in.genesis.accounts.size(), static_cast<double>(gen_ns) / 1e9,
              wire_digest(in, shape.superblocks).hex().c_str());

  // --- closed-loop replay ---------------------------------------------------
  SpanLog spans{options.trace};
  std::vector<Iteration> iterations;
  Hash32 parent_hash;
  Hash32 checkpoint_digest;
  const std::uint32_t checkpoint = shape.warmup + 2;
  // Peak memory is read once a fixed number of superblocks has committed,
  // so it does not grow with how many a faster program fits in the window
  // (the oracle keeps every index's result; the benchmark keeps its inputs).
  constexpr std::uint32_t kRssAfter = 11;
  double rss_mb = 0;
  const std::int64_t budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  std::int64_t timed_ns = 0;
  std::uint64_t computed_before = 0, deferred_before = 0;
  std::uint32_t timed_count = 0;
  std::vector<std::int64_t> decode_start(shape.txs_per_block);
  const std::size_t max_block_txs = v->defaults.max_block_txs;
  const std::size_t max_block_bytes = v->defaults.max_block_bytes;

  std::uint32_t top_ups = 0;
  const std::size_t per_superblock = kProposers * shape.txs_per_block;
  for (std::uint32_t k = 0;; ++k) {
    if (options.tiny ? k == shape.superblocks
                     : k >= shape.warmup + 3 && timed_ns >= budget_ns) {
      break;
    }
    if (k == in.superblocks()) {
      gen.extend(std::max(4u, shape.superblocks / 4));
      ++top_ups;
    }
    if (k == shape.warmup) {
      computed_before = v->oracle.root_stats().computed;
      deferred_before = v->oracle.root_stats().deferred;
    }
    Iteration it;
    it.index = k;
    it.timed = k >= shape.warmup;
    // The traced run alternates traced and untraced superblocks so the
    // tracing overhead is measured on the same stretch of the chain.
    it.traced = options.trace && (!it.timed || timed_count % 2 == 0);
    const bool on = it.traced;
    const auto open = [&](const char* name, std::int32_t parent) {
      return on ? spans.open(name, k, parent) : -1;
    };

    it.start_ns = now_ns();
    const std::int32_t root = open("replay.superblock", -1);
    it.root_span = root;

    // 1. Client ingest: decode, eager validation, admission.
    const std::vector<Bytes>& wires = in.own_wires[k];
    for (std::size_t i = 0; i < wires.size(); ++i) {
      decode_start[i] = now_ns();
      std::int32_t s = open("codec.tx_decode", root);
      Result<txn::Transaction> decoded = txn::Transaction::decode(wires[i]);
      if (!decoded.is_ok()) {
        spans.close(s);
        report.fail("own tx failed to decode");
        continue;
      }
      const txn::TxPtr tx = txn::make_tx_ptr(std::move(decoded).take(), wires[i]);
      spans.close(s, tx->hash);
      s = open("txn.validate", root);
      const Status valid = v->pipeline.validate_one(*tx, v->oracle.db());
      spans.close(s, tx->hash);
      if (!valid) {
        it.rejected.push_back(tx->hash);
        continue;
      }
      s = open("pool.add", root);
      const pool::TxPool::AddResult added =
          v->pool.add(tx, static_cast<SimTime>(now_ns()));
      spans.close(s, tx->hash);
      if (added != pool::TxPool::AddResult::kAdded) report.fail("pool refused an own tx");
    }

    // 2. Proposal: batch, certificate, wire frame.
    std::int32_t s = open("pool.take", root);
    std::vector<txn::TxPtr> batch = v->pool.take_batch(
        max_block_txs, max_block_bytes, static_cast<SimTime>(now_ns()));
    spans.close(s);
    s = open("crypto.block_sign", root);
    auto own = std::make_shared<const txn::Block>(txn::make_block(
        k, kSelf, k, parent_hash, std::move(batch), in.self, scheme));
    spans.close(s);
    s = open("codec.block_encode", root);
    const Bytes own_frame = txn::encode_block(*own);
    spans.close(s);
    if (own_frame.empty()) report.fail("own block encoded to nothing");
    it.blocks.push_back(std::move(own));

    // 3. Remote proposals: decode and check each certificate.
    for (std::uint32_t r = 1; r < kProposers; ++r) {
      s = open("codec.block_decode", root);
      Result<txn::Block> block = txn::decode_block(in.remote_frames[k][r - 1]);
      spans.close(s);
      if (!block.is_ok()) {
        it.headers_ok = false;
        continue;
      }
      s = open("crypto.cert_verify", root);
      const bool cert_ok =
          block.value().header.proposer == r &&
          block.value().header.cert.proposer_pubkey == in.proposer_keys[r] &&
          txn::verify_block_certificate(block.value(), scheme);
      spans.close(s);
      if (!cert_ok) it.headers_ok = false;
      it.blocks.push_back(std::make_shared<const txn::Block>(std::move(block).take()));
    }

    // 4. Commit: execute, prune the pool, fold the chain digest.
    s = open("srbb.execute", root);
    const node::IndexExecResult& result = v->oracle.execute(k, it.blocks);
    spans.close(s);
    const std::int64_t exec_end = now_ns();
    it.result = &result;
    std::vector<Hash32> committed;
    committed.reserve(result.total_valid);
    for (const node::BlockExecResult& block : result.blocks) {
      for (const node::TxOutcome& outcome : block.outcomes) {
        if (outcome.valid) committed.push_back(outcome.hash);
      }
    }
    s = open("pool.remove", root);
    v->pool.remove_committed(committed);
    spans.close(s);
    crypto::Sha256 digest;
    digest.update(parent_hash.view());
    for (const txn::BlockPtr& block : it.blocks) digest.update(block->hash().view());
    digest.update(result.state_root.view());
    parent_hash = digest.finish();
    spans.close(root);
    it.end_ns = now_ns();
    it.last_span = on ? static_cast<std::int32_t>(spans.spans().size()) - 1 : -1;

    // Own-transaction latency: decode start to the end of the execute that
    // committed it (every admitted own tx is in this superblock's block).
    const auto& own_outcomes = result.blocks[0].outcomes;
    std::size_t next = 0;
    for (std::size_t i = 0; i < wires.size() && next < own_outcomes.size(); ++i) {
      // Own txs enter the block in ingest order, minus the rejected ones.
      const Hash32& h = in.plans[k * per_superblock + kSelf * shape.txs_per_block + i].hash;
      if (own_outcomes[next].hash != h) continue;
      if (own_outcomes[next].valid) {
        it.own_latency_ms.push_back(static_cast<double>(exec_end - decode_start[i]) / 1e6);
      }
      ++next;
    }
    if (k + 1 == checkpoint) checkpoint_digest = parent_hash;
    if (k + 1 == kRssAfter) rss_mb = peak_rss_mb();
    if (it.timed) {
      timed_ns += it.end_ns - it.start_ns;
      ++timed_count;
    }
    iterations.push_back(std::move(it));
  }
  if (top_ups != 0) {
    std::printf("note: inputs topped up %u times between iterations\n", top_ups);
  }

  // --- metrics ---------------------------------------------------------------
  // Throughput is the median over timed superblocks of valid commits per
  // wall second: a median shrugs off the host's passing stalls, which a
  // total over the window would absorb.
  std::vector<double> latency_ms, tps, tps_traced, tps_untraced;
  std::uint64_t valid_timed = 0;
  for (const Iteration& it : iterations) {
    if (!it.timed) continue;
    const double rate = static_cast<double>(it.result->total_valid) /
                        (static_cast<double>(it.end_ns - it.start_ns) / 1e9);
    tps.push_back(rate);
    (it.traced ? tps_traced : tps_untraced).push_back(rate);
    valid_timed += it.result->total_valid;
    latency_ms.insert(latency_ms.end(), it.own_latency_ms.begin(), it.own_latency_ms.end());
  }
  std::printf("superblock wall ms:");
  for (const Iteration& it : iterations) {
    std::printf(" %.0f%s", static_cast<double>(it.end_ns - it.start_ns) / 1e6,
                it.timed ? "" : "(warm-up)");
  }
  std::printf("\n");
  std::printf("timed: %u superblocks in %.3f s, %llu valid txs, %zu own-tx "
              "latency samples\n",
              timed_count, static_cast<double>(timed_ns) / 1e9,
              static_cast<unsigned long long>(valid_timed), latency_ms.size());
  report.set("commit_tps", median(tps), "tx/s");
  report.set("tx_latency_p50_ms", quantile(latency_ms, 0.50), "ms");
  report.set("tx_latency_p99_ms", quantile(latency_ms, 0.99), "ms");
  report.set("setup_s", median(setup_s), "s");
  report.set("peak_rss_mb", rss_mb > 0 ? rss_mb : peak_rss_mb(), "MB");
  if (options.trace) {
    const double untraced = median(tps_untraced);
    report.set("trace.overhead_pct",
               untraced > 0 ? 100.0 * (untraced - median(tps_traced)) / untraced : 0.0,
               "%");
    set_layer_metrics(spans, iterations, *v, computed_before, deferred_before, report);
    if (!options.span_path.empty() && !spans.write_chrome_json(options.span_path)) {
      report.fail("could not write spans to " + options.span_path);
    }
  }

  // --- output checks -----------------------------------------------------------
  const Checked checked = check_outputs(shape, in, v->oracle, iterations, report);
  report.attempted = checked.attempted;
  report.failed = checked.failed;
  if (checked.failed != 0) report.correct = false;
  const node::IndexExecResult& last = *iterations.back().result;
  std::printf("state root after index %u: %s\nchain digest after index %u: %s\n",
              iterations.back().index, last.state_root.hex().c_str(),
              iterations.back().index, parent_hash.hex().c_str());
  std::printf("chain digest after index %u (checkpoint): %s\n", checkpoint - 1,
              checkpoint_digest.hex().c_str());
}

}  // namespace perfbench
