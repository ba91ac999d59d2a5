// Micro-benchmarks (google-benchmark) for the hot paths of the simulator
// and protocol machinery: event scheduling, header codecs, fragmentation,
// and window bookkeeping. These guard against regressions that would make
// the experiment sweeps impractically slow.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/trace.h"
#include "inet/ip.h"
#include "net/frame.h"
#include "net/frame_arena.h"
#include "rmcast/engine/core.h"
#include "rmcast/engine/registry.h"
#include "rmcast/fec/codec.h"
#include "rmcast/fec/gf256.h"
#include "rmcast/window.h"
#include "rmcast/wire.h"
#include "sim/simulator.h"

namespace rmc {

// External linkage on purpose: the compiler must assume some other TU can
// attach a tracer, so the per-event null test in BM_EventChurnNullTrace
// survives optimization — exactly the branch every instrumented tier pays
// when no tracer is attached.
trace::Tracer* g_bench_tracer = nullptr;

namespace {

void BM_SimulatorScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(i, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleAndRun);

void BM_SimulatorCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) ids.push_back(sim.schedule_at(i, [] {}));
    for (std::size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorCancelHeavy);

// The event-core churn: a schedule/cancel/re-arm pattern in the shape of
// the sender's RTO and poll timers — every ACK cancels the pending timeout
// and arms a fresh one, with a capture big enough (~32 bytes) to be
// realistic but still inline in the event record. bench/gates.py records
// its events/sec in BENCH_sim_core.json (the ci throughput ratchet's
// input) and gates BM_EventChurnNullTrace against it.
//
// The argument is unused. It stays so the run name stays BM_EventChurn/0:
// the ledger (bench/ledger/run.py, sim.event_churn_ns) and the gates look
// it up by that exact name.
void BM_EventChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t sink = 0;
    std::array<std::uint64_t, 3> ctx{1, 2, 3};  // 32-byte capture with &sink
    sim::EventId rto = sim::kInvalidEventId;
    for (int i = 0; i < 1000; ++i) {
      // "ACK arrives": push the timeout out and schedule the next send.
      if (rto != sim::kInvalidEventId) sim.cancel(rto);
      rto = sim.schedule_at(i + 100, [&sink, ctx] { sink += ctx[0]; });
      sim.schedule_at(i, [&sink, ctx] { sink += ctx[1]; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  // Two schedules + one cancel per iteration-step is ~2 executed events.
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_EventChurn)->Arg(0);

// The tracing-disabled overhead gate: BM_EventChurn's exact churn with the
// null-sink hook pattern added to every executed event — load the tracer
// pointer, test, skip. bench/gates.py fails if this runs more than 5%
// slower than BM_EventChurn, i.e. if untraced runs ever start paying for
// the tracing subsystem. Its Arg(0) keeps the run name the gate pairs with
// BM_EventChurn/0.
void BM_EventChurnNullTrace(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t sink = 0;
    std::array<std::uint64_t, 3> ctx{1, 2, 3};  // 32-byte capture with &sink
    sim::EventId rto = sim::kInvalidEventId;
    for (int i = 0; i < 1000; ++i) {
      if (rto != sim::kInvalidEventId) sim.cancel(rto);
      rto = sim.schedule_at(i + 100, [&sink, ctx] {
        if (g_bench_tracer) {
          g_bench_tracer->record(0, trace::EventKind::kSenderTx, 0);
        }
        sink += ctx[0];
      });
      sim.schedule_at(i, [&sink, ctx] {
        if (g_bench_tracer) {
          g_bench_tracer->record(0, trace::EventKind::kSenderTx, 0);
        }
        sink += ctx[1];
      });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_EventChurnNullTrace)->Arg(0);

// Cancel + re-arm of one timer, the tightest loop the RTO path has: no
// event ever fires, so this isolates the bookkeeping cost of arming.
void BM_TimerRearm(benchmark::State& state) {
  sim::Simulator sim;
  sim::EventId id = sim.schedule_at(1'000'000'000, [] {});
  for (auto _ : state) {
    sim.cancel(id);
    id = sim.schedule_at(1'000'000'000, [] {});
  }
  benchmark::DoNotOptimize(id);
}
BENCHMARK(BM_TimerRearm);

// Switch-flood fan-out: one MTU-sized payload handed to N egress frames.
// With the frame arena this is N refcount bumps on one block; the bytes
// are never copied. Steady state does no allocation — blocks recycle
// through the arena free list between iterations.
void BM_FrameFanout(benchmark::State& state) {
  const std::size_t fanout = static_cast<std::size_t>(state.range(0));
  net::MacAddr src{}, dst{};
  for (auto _ : state) {
    net::PayloadRef payload = net::PayloadRef::allocate(1500);
    payload.mutable_data()[0] = 0x5A;
    std::vector<net::Frame> egress;
    egress.reserve(fanout);
    for (std::size_t i = 0; i < fanout; ++i) {
      egress.push_back(net::make_frame(src, dst, payload));
    }
    benchmark::DoNotOptimize(egress.data());
  }
  state.SetItemsProcessed(state.iterations() * fanout);
}
BENCHMARK(BM_FrameFanout)->Arg(4)->Arg(16)->Arg(64);

void BM_HeaderRoundTrip(benchmark::State& state) {
  rmcast::Header h{rmcast::PacketType::kData, rmcast::kFlagLast, 7, 42, 1000};
  for (auto _ : state) {
    Writer w(rmcast::kHeaderBytes);
    rmcast::write_header(w, h);
    Reader r(BytesView(w.buffer().data(), w.buffer().size()));
    auto out = rmcast::read_header(r);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_HeaderRoundTrip);

// Send side of the simulated IP layer: one datagram cut into MTU frame
// payloads (IP header + slice of the UDP segment, each in its own arena
// block), all held and then released, as the NIC queue does.
void BM_FragmentDatagram(benchmark::State& state) {
  const net::Endpoint src{net::Ipv4Addr(10, 0, 0, 1), 1};
  const net::Endpoint dst{net::Ipv4Addr(10, 0, 0, 2), 2};
  const Buffer payload(static_cast<std::size_t>(state.range(0)), 0x5A);
  std::vector<net::PayloadRef> fragments;
  for (auto _ : state) {
    fragments.clear();
    inet::fragment_datagram(src, dst, BytesView(payload.data(), payload.size()), 1,
                            [&](net::PayloadRef f) { fragments.push_back(std::move(f)); });
    benchmark::DoNotOptimize(fragments.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FragmentDatagram)->Arg(1500)->Arg(8000)->Arg(50000);

// Receive side, per host: parse each frame payload of one datagram,
// reassemble the UDP payload into a pooled block and deliver it.
void BM_ReassembleDatagram(benchmark::State& state) {
  const net::Endpoint src{net::Ipv4Addr(10, 0, 0, 1), 1};
  const net::Endpoint dst{net::Ipv4Addr(10, 0, 0, 2), 2};
  const Buffer payload(static_cast<std::size_t>(state.range(0)), 0x5A);
  std::vector<net::PayloadRef> fragments;
  inet::fragment_datagram(src, dst, BytesView(payload.data(), payload.size()), 1,
                          [&](net::PayloadRef f) { fragments.push_back(std::move(f)); });
  sim::Simulator sim;
  std::int64_t delivered = 0;
  inet::Reassembler reassembler(sim, [&](inet::Datagram d, std::size_t) {
    benchmark::DoNotOptimize(d.payload.data());
    ++delivered;
  });
  for (auto _ : state) {
    for (const net::PayloadRef& f : fragments) reassembler.accept(f);
  }
  if (delivered != static_cast<std::int64_t>(state.iterations())) {
    state.SkipWithError("datagram not reassembled");
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ReassembleDatagram)->Arg(1000)->Arg(8000)->Arg(50000);

void BM_WindowCycle(benchmark::State& state) {
  for (auto _ : state) {
    rmcast::SenderWindow w;
    w.reset(256, 32);
    rmcast::CumTracker t;
    t.reset(30);
    std::uint32_t released = 0;
    while (!w.all_released()) {
      while (w.can_send()) {
        std::uint32_t seq = w.claim_next();
        w.mark_sent(seq, seq);
      }
      ++released;
      for (std::size_t unit = 0; unit < 30; ++unit) t.on_ack(unit, released);
      w.release_to(t.min_cum());
    }
    benchmark::DoNotOptimize(w.base());
  }
}
BENCHMARK(BM_WindowCycle);

// The same window/tracker cycle, but asking the per-packet policy question
// (the flag bits for each claimed sequence number) through the engine
// layer's virtual interface — the shape of the sender's hot path after the
// engine refactor, where BM_WindowCycle is the direct-call shape from
// before it. bench/smoke.sh diffs the two: if engine dispatch ever costs
// more than 5% of the hot-path cycle, the gate fails.
void BM_EngineWindowCycle(benchmark::State& state) {
  const rmcast::ProtocolEngine* engine = rmcast::ProtocolRegistry::instance()
                                             .entry(rmcast::ProtocolKind::kNakPolling)
                                             .engine();
  rmcast::ProtocolConfig config;
  config.kind = rmcast::ProtocolKind::kNakPolling;
  config.poll_interval = 12;
  std::uint32_t flag_sink = 0;
  for (auto _ : state) {
    rmcast::SenderWindow w;
    w.reset(256, 32);
    rmcast::CumTracker t;
    t.reset(30);
    std::uint32_t released = 0;
    while (!w.all_released()) {
      while (w.can_send()) {
        std::uint32_t seq = w.claim_next();
        flag_sink += engine->data_flags(seq, /*force_poll=*/false, config);
        w.mark_sent(seq, seq);
      }
      ++released;
      for (std::size_t unit = 0; unit < 30; ++unit) t.on_ack(unit, released);
      w.release_to(t.min_cum());
    }
    benchmark::DoNotOptimize(w.base());
    benchmark::DoNotOptimize(flag_sink);
  }
}
BENCHMARK(BM_EngineWindowCycle);

// The GF(2^8) region kernel underneath the erasure-coded protocol family.
// Arg 0 = scalar log/exp-table path, Arg 1 = slice-by-64 wide path; both
// produce identical bytes. bench/smoke.sh diffs the two: the wide path
// must hold at least a 2x throughput edge on the multiply-accumulate, or
// the BENCH_ec_decode.json gate fails (the decode cost model assumes it).
void BM_GfMulAddRegion(benchmark::State& state) {
  const auto backend = static_cast<rmcast::fec::Backend>(state.range(0));
  constexpr std::size_t kLen = 8192;  // one max-size protocol block
  std::vector<std::uint8_t> dst(kLen), src(kLen);
  for (std::size_t i = 0; i < kLen; ++i) {
    dst[i] = static_cast<std::uint8_t>(i * 131 + 7);
    src[i] = static_cast<std::uint8_t>(i * 17 + 3);
  }
  std::uint8_t c = 0x8e;
  for (auto _ : state) {
    rmcast::fec::mul_add_region(dst.data(), src.data(), c, kLen, backend);
    benchmark::DoNotOptimize(dst.data());
    c = c == 255 ? 2 : static_cast<std::uint8_t>(c + 1);  // never the c<=1 shortcuts
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kLen);
}
BENCHMARK(BM_GfMulAddRegion)->Arg(0)->Arg(1);

// Full Reed-Solomon decode at the protocol's default shape (k=32, m=8)
// with the worst legal erasure pattern: all eight parities spent on an
// eight-data-block burst. Reported for scale next to the region kernel;
// the smoke gate keys off BM_GfMulAddRegion.
void BM_RsDecode(benchmark::State& state) {
  const auto backend = static_cast<rmcast::fec::Backend>(state.range(0));
  constexpr std::size_t kK = 32, kM = 8, kLen = 8192;
  const rmcast::fec::Codec& codec = rmcast::fec::shared_codec(kK, kM);
  std::vector<std::vector<std::uint8_t>> data(kK), parity(kM);
  std::uint8_t* data_ptrs[kK];
  std::uint8_t* parity_ptrs[kM];
  bool data_present[kK];
  bool parity_present[kM];
  for (std::size_t i = 0; i < kK; ++i) {
    data[i].resize(kLen);
    for (std::size_t b = 0; b < kLen; ++b) {
      data[i][b] = static_cast<std::uint8_t>(i * 251 + b * 13 + 1);
    }
    data_ptrs[i] = data[i].data();
    data_present[i] = i >= kM;  // burst erasure of blocks 0..7
  }
  for (std::size_t j = 0; j < kM; ++j) {
    parity[j].resize(kLen);
    parity_ptrs[j] = parity[j].data();
    parity_present[j] = true;
  }
  codec.encode(data_ptrs, parity_ptrs, kLen, backend);
  for (auto _ : state) {
    bool ok = codec.decode(data_ptrs, data_present,
                           const_cast<const std::uint8_t* const*>(parity_ptrs),
                           parity_present, kLen, backend);
    benchmark::DoNotOptimize(ok);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kM *
                          kLen);
}
BENCHMARK(BM_RsDecode)->Arg(0)->Arg(1);

// Receiver-roster accounting at datacenter scale. Arg 0 = roster size,
// Arg 1 = 0 for the pre-refactor shape (a full flat walk over the
// eviction flags on every query) or 1 for ProtocolCore::live_nodes()
// (bitmap membership with a cached live vector, rebuilt only after an
// eviction dirties it). The cached path must stay O(1) per query at any
// roster size; the flat walk is the O(N) cost it replaced.
void BM_RosterWalk(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bool cached = state.range(1) == 1;
  const rmcast::ProtocolEngine* engine =
      rmcast::ProtocolRegistry::instance().entry(rmcast::ProtocolKind::kAck).engine();
  rmcast::ProtocolConfig config;
  rmcast::ProtocolCore core(*engine, config);
  core.begin_send(n);
  core.mark_evicted(n / 2);
  std::vector<bool> evicted_flat(n, false);
  evicted_flat[n / 2] = true;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    if (cached) {
      sink += core.live_nodes().size();
    } else {
      std::vector<std::size_t> live;
      live.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (!evicted_flat[i]) live.push_back(i);
      }
      sink += live.size();
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RosterWalk)
    ->Args({31, 0})
    ->Args({31, 1})
    ->Args({1023, 0})
    ->Args({1023, 1})
    ->Args({10007, 0})
    ->Args({10007, 1});

// One acknowledgment's minimum-cum maintenance. Arg 0 = tracked units,
// Arg 1 = 0 for the pre-refactor shape (write the unit's cum, then a
// serial seq_min fold over all units) or 1 for CumTracker::on_ack (the
// tournament tree's leaf-to-root update, O(log N)). At N = 10007 the
// serial fold is the per-ACK cost that made 10^4-receiver sweeps
// quadratic in roster size.
void BM_MinCumUpdate(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const bool tree = state.range(1) == 1;
  rmcast::CumTracker t;
  t.reset(n);
  std::vector<std::uint32_t> flat(n, 0);
  std::uint32_t cum = 1;
  std::size_t unit = 0;
  std::uint32_t sink = 0;
  for (auto _ : state) {
    if (tree) {
      t.on_ack(unit, cum);
      sink += t.min_cum();
    } else {
      flat[unit] = cum;
      std::uint32_t min = flat[0];
      for (std::size_t i = 1; i < n; ++i) min = rmcast::seq_min(min, flat[i]);
      sink += min;
    }
    if (++unit == n) {
      unit = 0;
      ++cum;
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MinCumUpdate)
    ->Args({31, 0})
    ->Args({31, 1})
    ->Args({1023, 0})
    ->Args({1023, 1})
    ->Args({10007, 0})
    ->Args({10007, 1});

}  // namespace
}  // namespace rmc

BENCHMARK_MAIN();
