// cgpad_bench: the compiled half of the cgpad benchmark (run.py drives it).
//
//   cgpad_bench frames --workload W --seed S --count N [--trace]
//       The seeded job stream: N cgpa.job.v1 frames, one per line, ids
//       0..N-1. The same (W, S) always yields the same bytes.
//   cgpad_bench warm --workload W
//       The warm set answered before the timed window (ids "warm-<i>").
//   cgpad_bench direct --in FILE [--threads T]
//       FILE holds frame/response line pairs captured from cgpad. Each
//       response must equal serve::runJobDirect's document byte for byte,
//       ignoring only the cacheHit flag. Exit 1 on any mismatch.
//   cgpad_bench replay --workload W --seed S --seconds T
//       In-process, single-threaded replay of the same job stream through
//       each module's public functions, timing every call from here (no
//       instrumentation inside src/). Prints one JSON object of per-layer
//       metrics. Exit 1 when a drift guard trips: a replayed compile whose
//       irHash or remarks digest differs from serve::compileJobPlan, an
//       incorrect result, or spans that no longer cover the timed work.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/profile.hpp"
#include "cgpa/driver.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/loopgen.hpp"
#include "hls/area.hpp"
#include "hls/ops.hpp"
#include "interp/interpreter.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "opt/passes.hpp"
#include "serve/executor.hpp"
#include "serve/job.hpp"
#include "serve/plan_cache.hpp"
#include "support/argparse.hpp"
#include "support/rng.hpp"
#include "trace/metrics.hpp"
#include "trace/remarks_json.hpp"
#include "trace/run_record.hpp"

namespace {

using namespace cgpa;
using Clock = std::chrono::steady_clock;

// cgpad's defaults, mirrored so the replay's caches churn like the
// daemon's: plan-cache capacity (cgpad --cache-entries) and the
// per-worker simulator LRU (serve::JobExecutor maxSimulators).
constexpr std::size_t kPlanCacheEntries = 32;
constexpr std::size_t kSimulatorSlots = 16;

// Drift-guard tolerances: the mirrored compile spans must sum to within
// this share of the real compileJobPlan wall time, and the spans of a job
// must cover at least this share of the job's replay wall time.
constexpr double kCompileTolerance = 0.25;
constexpr double kMinCoverage = 0.90;

const std::vector<std::string>& kernelNames() {
  static const std::vector<std::string> names = {
      "kmeans", "hash-indexing", "ks", "em3d", "1d-gaussblur"};
  return names;
}

template <typename T> void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[rng.nextBelow(i)]);
}

serve::JobRequest kernelJob(const std::string& kernel, const std::string& flow,
                            int workers, int fifoDepth) {
  serve::JobRequest job;
  job.kernel = kernel;
  job.flow = flow;
  job.workers = workers;
  job.fifoDepth = fifoDepth;
  return job;
}

/// Every distinct dse_grid point: kernel x flow (p2 only where the kernel
/// supports it, as cgpa_sweep does) x workers x fifoDepth, seed 42.
std::vector<serve::JobRequest> dseGridPoints() {
  std::vector<serve::JobRequest> points;
  for (const std::string& name : kernelNames()) {
    std::vector<std::string> flows = {"p1", "legup"};
    if (kernels::kernelByName(name)->supportsP2())
      flows.push_back("p2");
    for (const std::string& flow : flows)
      for (const int workers : {2, 4, 8})
        for (const int fifoDepth : {2, 4, 8, 16, 32})
          points.push_back(kernelJob(name, flow, workers, fifoDepth));
  }
  return points;
}

bool knownWorkload(const std::string& workload) {
  return workload == "seed_sweep" || workload == "dse_grid" ||
         workload == "cold_specs";
}

/// The seeded job stream of `workload` (ids 0..count-1).
std::vector<serve::JobRequest> jobStream(const std::string& workload,
                                         std::uint64_t seed,
                                         std::size_t count) {
  Rng rng(seed ^ 0x6367706164626e63ULL);
  std::vector<serve::JobRequest> jobs;
  jobs.reserve(count);
  std::vector<serve::JobRequest> round;
  while (jobs.size() < count) {
    if (workload == "seed_sweep") {
      // One round: every kernel at scale 1 and 2, each job with a fresh
      // 32-bit workload seed, so no two jobs share a workload.
      round.clear();
      for (const std::string& name : kernelNames())
        for (const int scale : {1, 2}) {
          serve::JobRequest job = kernelJob(name, "p1", 4, 16);
          job.scale = scale;
          round.push_back(job);
        }
      shuffle(round, rng);
      for (serve::JobRequest& job : round)
        job.seed = rng.next() & 0xffffffffULL;
    } else if (workload == "dse_grid") {
      round = dseGridPoints();
      shuffle(round, rng);
    } else {
      // cold_specs: a never-seen generated loop on every job, cycling
      // through flow {p1,p2} x workers {1,2,4} in shuffled rounds.
      round.clear();
      for (const char* flow : {"p1", "p2"})
        for (const int workers : {1, 2, 4}) {
          serve::JobRequest job;
          job.flow = flow;
          job.workers = workers;
          round.push_back(job);
        }
      shuffle(round, rng);
      for (serve::JobRequest& job : round)
        job.spec = fuzz::serializeSpec(fuzz::specFromSeed(rng.next()));
    }
    for (serve::JobRequest& job : round) {
      if (jobs.size() == count)
        break;
      job.id = trace::JsonValue(static_cast<std::uint64_t>(jobs.size()));
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

/// The warm set: one job per distinct compile key the timed window will
/// use (every dse_grid plan; the five seed_sweep kernels; nothing for
/// cold_specs, whose keys are never seen twice).
std::vector<serve::JobRequest> warmSet(const std::string& workload) {
  std::vector<serve::JobRequest> jobs;
  if (workload == "seed_sweep") {
    for (const std::string& name : kernelNames())
      jobs.push_back(kernelJob(name, "p1", 4, 16));
  } else if (workload == "dse_grid") {
    std::map<std::string, bool> seen;
    for (const serve::JobRequest& point : dseGridPoints())
      if (point.fifoDepth == 16 && !seen[point.compileKey()]) {
        seen[point.compileKey()] = true;
        jobs.push_back(point);
      }
  }
  for (std::size_t i = 0; i < jobs.size(); ++i)
    jobs[i].id = trace::JsonValue("warm-" + std::to_string(i));
  return jobs;
}

int usage(const std::string& message) {
  std::fprintf(stderr, "cgpad_bench: %s\n", message.c_str());
  return 2;
}

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t count = 0;
  double seconds = 1.0;
  bool trace = false;
  std::string in;
  int threads = 1;
};

Status parseArgs(int argc, char** argv, Args& out) {
  support::ArgParser args(argc, argv);
  if (args.done() || args.isFlag())
    return Status::error(ErrorCode::InvalidArgument,
                         "usage: cgpad_bench frames|warm|direct|replay ...");
  out.command = args.positional();
  while (!args.done()) {
    if (args.matchFlag("workload")) {
      Expected<std::string> v = args.value();
      if (!v.ok())
        return v.status();
      out.workload = *v;
    } else if (args.matchFlag("seed")) {
      Expected<std::uint64_t> v = args.uintValue();
      if (!v.ok())
        return v.status();
      out.seed = *v;
    } else if (args.matchFlag("count")) {
      Expected<std::uint64_t> v = args.uintValue();
      if (!v.ok())
        return v.status();
      out.count = *v;
    } else if (args.matchFlag("seconds")) {
      Expected<double> v = args.doubleValue();
      if (!v.ok())
        return v.status();
      out.seconds = *v;
    } else if (args.matchFlag("threads")) {
      Expected<std::int64_t> v = args.intValue();
      if (!v.ok())
        return v.status();
      out.threads = static_cast<int>(std::clamp<std::int64_t>(*v, 1, 64));
    } else if (args.matchFlag("trace")) {
      out.trace = true;
    } else if (args.matchFlag("in")) {
      Expected<std::string> v = args.value();
      if (!v.ok())
        return v.status();
      out.in = *v;
    } else {
      return args.unknown();
    }
  }
  if ((out.command == "frames" || out.command == "warm" ||
       out.command == "replay") &&
      !knownWorkload(out.workload))
    return Status::error(ErrorCode::InvalidArgument,
                         "--workload must be seed_sweep|dse_grid|cold_specs");
  return Status::success();
}

void printFrames(std::vector<serve::JobRequest> jobs, bool traced) {
  std::string out;
  for (serve::JobRequest& job : jobs) {
    job.trace = traced;
    out += serve::jobToJson(job).dump(0);
    out += '\n';
  }
  std::fwrite(out.data(), 1, out.size(), stdout);
}

// ---------------------------------------------------------------- direct

/// The served bytes with the one field allowed to differ reset.
std::string withoutCacheHit(std::string response) {
  const std::string hit = "\"cacheHit\":true";
  const std::size_t at = response.find(hit);
  if (at != std::string::npos)
    response.replace(at, hit.size(), "\"cacheHit\":false");
  return response;
}

/// Names of the top-level fields in which two response documents differ
/// ("<unparseable>" when either is not JSON).
std::string differingFields(const std::string& served,
                            const std::string& expected) {
  const std::optional<trace::JsonValue> a = trace::parseJson(served);
  const std::optional<trace::JsonValue> b = trace::parseJson(expected);
  if (!a || !b)
    return "<unparseable>";
  std::string fields;
  for (const auto& [key, value] : b->members()) {
    const trace::JsonValue* other = a->find(key);
    if (other == nullptr || other->dump(0) != value.dump(0))
      fields += (fields.empty() ? "" : ",") + key;
  }
  for (const auto& [key, value] : a->members())
    if (b->find(key) == nullptr)
      fields += (fields.empty() ? "" : ",") + key;
  return fields.empty() ? "<formatting>" : fields;
}

int runDirect(const Args& args) {
  std::ifstream in(args.in);
  if (!in)
    return usage("cannot read " + args.in);
  std::vector<std::pair<std::string, std::string>> pairs;
  std::string frame;
  std::string response;
  while (std::getline(in, frame) && std::getline(in, response))
    pairs.emplace_back(frame, response);

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::string> reports(pairs.size());
  auto worker = [&] {
    for (std::size_t i = next++; i < pairs.size(); i = next++) {
      Expected<serve::JobRequest> job = serve::jobFromFrame(pairs[i].first);
      std::string expected;
      if (!job.ok()) {
        expected = "<unparseable frame: " + job.status().message() + ">";
      } else {
        Expected<trace::JsonValue> direct = serve::runJobDirect(*job);
        expected = direct.ok()
                       ? direct->dump(0)
                       : serve::jobResultError(job->id, direct.status())
                             .dump(0);
      }
      const std::string served = withoutCacheHit(pairs[i].second);
      if (served != expected) {
        ++mismatches;
        reports[i] = "cgpad_bench: response differs from runJobDirect in " +
                     differingFields(served, expected) + " for " +
                     pairs[i].first + "\n";
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < args.threads; ++t)
    pool.emplace_back(worker);
  for (std::thread& thread : pool)
    thread.join();
  // The first few in full; the count says how many there were.
  std::size_t shown = 0;
  for (const std::string& report : reports)
    if (!report.empty() && shown++ < 10)
      std::fputs(report.c_str(), stderr);
  std::printf("{\"checked\": %zu, \"mismatches\": %zu}\n", pairs.size(),
              mismatches.load());
  return mismatches.load() == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- replay

/// Span accounting: nanoseconds per span name, plus a running total of
/// every span ever closed (differences of it give a job's coverage).
/// Spans never nest, so the running total never double-counts.
///
/// Cache-miss work (compile passes, simulator builds) is charged on every
/// miss, warm set included, and reported per miss; every other span is
/// charged only while the timed stream replays and is reported per job.
class Spans {
public:
  class Scope {
  public:
    Scope(Spans& spans, const char* name)
        : spans_(spans), name_(name), start_(Clock::now()) {}
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Close early; returns the span's nanoseconds.
    double close() {
      if (name_ == nullptr)
        return 0.0;
      const double ns = std::chrono::duration<double, std::nano>(
                            Clock::now() - start_)
                            .count();
      spans_.add(name_, ns);
      name_ = nullptr;
      return ns;
    }

  private:
    Spans& spans_;
    const char* name_;
    Clock::time_point start_;
  };

  void add(const std::string& name, double ns) {
    if (charged_ || missSpan(name))
      totals_[name] += ns;
    covered_ += ns;
  }
  double total(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second;
  }
  double covered() const { return covered_; }
  void setCharged(bool charged) { charged_ = charged; }

  static bool missSpan(const std::string& name) {
    static const std::set<std::string> names = {
        "ir.build",           "ir.verify",          "opt.scalar",
        "analysis.profile",   "analysis.cfg",       "analysis.alias",
        "analysis.pdg",       "analysis.scc",       "pipeline.partition",
        "pipeline.transform", "hls.sdc",            "hls.area",
        "serve.plan_digest",  "compile.total",      "sim.build"};
    return names.count(name) != 0;
  }

private:
  std::map<std::string, double> totals_;
  double covered_ = 0.0;
  bool charged_ = true;
};

/// Compile-side tallies over every replayed compile (warm set included):
/// drift guards and per-plan counts.
struct CompileTally {
  std::size_t compiles = 0;
  double mirroredNs = 0.0; ///< Σ mirrored pass spans.
  double realNs = 0.0;     ///< Σ serve::compileJobPlan wall time.
  std::size_t hashMismatches = 0;
  double irInsts = 0.0;
  double tasks = 0.0;
  double channels = 0.0;
  double remarks = 0.0;
  double interpNs = 0.0; ///< Interpreter time (profile + spec golden).
  double interpInstrs = 0.0;
};

std::size_t moduleInstructions(const ir::Module& module) {
  std::size_t count = 0;
  for (const auto& fn : module.functions())
    for (const auto& block : fn->blocks())
      count += static_cast<std::size_t>(block->size());
  return count;
}

/// Kernel-job compile, call for call as driver::compileKernelChecked with
/// the CompileOptions serve::compileJobPlan passes.
Status mirrorKernelCompile(const serve::JobRequest& job, driver::Flow flow,
                           serve::CompiledPlan& plan, Spans& spans,
                           CompileTally& tally) {
  const kernels::Kernel* found = kernels::kernelByName(job.kernel);
  if (found == nullptr)
    return Status::error(ErrorCode::InvalidArgument,
                         "unknown kernel '" + job.kernel + "'");
  const kernels::Kernel& kernel = *found;
  driver::CompileOptions options;
  options.partition.numWorkers = job.workers;
  options.remarks = &plan.remarks;
  auto accel = std::make_unique<driver::CompiledAccelerator>();
  driver::CompiledAccelerator& out = *accel;
  {
    Spans::Scope span(spans, "ir.build");
    out.module = kernel.buildModule();
    out.fn = out.module->findFunction("kernel");
  }
  if (out.fn == nullptr)
    return Status::error(ErrorCode::InvalidArgument,
                         "kernel module lacks @kernel");
  {
    Spans::Scope span(spans, "ir.verify");
    if (Status status = ir::verifyModuleStatus(*out.module); !status.ok())
      return status;
  }
  {
    Spans::Scope span(spans, "opt.scalar");
    opt::runScalarOptimizations(*out.module);
  }
  {
    Spans::Scope span(spans, "ir.verify");
    if (Status status = ir::verifyModuleStatus(*out.module); !status.ok())
      return status;
  }
  analysis::ProfileData profile;
  {
    Spans::Scope span(spans, "analysis.profile");
    kernels::Workload training = kernel.buildWorkload(options.profileWorkload);
    const auto start = Clock::now();
    profile =
        analysis::profileFunction(*out.fn, training.args, *training.memory);
    tally.interpNs +=
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count();
    tally.interpInstrs += static_cast<double>(profile.totalInstructions);
  }
  {
    Spans::Scope span(spans, "analysis.cfg");
    out.dom = std::make_unique<analysis::DominatorTree>(*out.fn);
    out.postDom = std::make_unique<analysis::DominatorTree>(*out.fn, true);
    out.loops = std::make_unique<analysis::LoopInfo>(*out.fn, *out.dom);
  }
  {
    Spans::Scope span(spans, "analysis.alias");
    out.alias = std::make_unique<analysis::AliasAnalysis>(*out.fn, *out.module,
                                                          *out.loops);
  }
  {
    Spans::Scope span(spans, "analysis.cfg");
    out.controlDeps =
        std::make_unique<analysis::ControlDependence>(*out.fn, *out.postDom);
  }
  ir::BasicBlock* header = out.fn->findBlock(kernel.targetLoopHeader());
  analysis::Loop* loop =
      header != nullptr ? out.loops->loopWithHeader(header) : nullptr;
  if (loop == nullptr)
    return Status::error(ErrorCode::InvalidArgument,
                         "target loop not found: " + kernel.targetLoopHeader());
  {
    Spans::Scope span(spans, "analysis.pdg");
    out.pdg = std::make_unique<analysis::Pdg>(*out.fn, *loop, *out.alias,
                                              *out.controlDeps, options.remarks);
  }
  {
    Spans::Scope span(spans, "analysis.scc");
    out.sccs = std::make_unique<analysis::SccGraph>(
        *out.pdg,
        [&profile](const ir::Instruction* inst) {
          const auto timing = hls::opTiming(inst->opcode(), inst->type());
          return static_cast<double>(profile.countOf(inst->parent())) *
                 static_cast<double>(1 + timing.latency);
        },
        options.remarks);
  }
  {
    Spans::Scope span(spans, "pipeline.partition");
    pipeline::PartitionOptions partitionOptions = options.partition;
    partitionOptions.remarks = options.remarks;
    partitionOptions.blockFreq = [profile](const ir::BasicBlock* block) {
      return static_cast<double>(profile.countOf(block));
    };
    if (flow == driver::Flow::Legup) {
      out.plan = pipeline::sequentialPlan(*out.sccs, *loop, options.remarks);
    } else {
      if (Status status = pipeline::checkPartitionOptions(partitionOptions);
          !status.ok())
        return status;
      partitionOptions.policy = flow == driver::Flow::CgpaP2
                                    ? pipeline::ReplicablePolicy::ForceParallel
                                    : pipeline::ReplicablePolicy::Heuristic;
      out.plan = pipeline::partitionLoop(*out.sccs, *loop, partitionOptions);
    }
    out.shape = out.plan.shapeString();
  }
  {
    Spans::Scope span(spans, "pipeline.transform");
    if (Status status = pipeline::checkTransformPreconditions(out.plan);
        !status.ok())
      return status;
    out.pipelineModule = pipeline::transformLoop(*out.fn, out.plan,
                                                 /*loopId=*/0, options.remarks);
  }
  {
    Spans::Scope span(spans, "ir.verify");
    if (Status status = ir::verifyModuleStatus(*out.module); !status.ok())
      return status;
  }
  hls::ScheduleOptions scheduleOptions = options.schedule;
  scheduleOptions.remarks = options.remarks;
  auto schedule = [&](const ir::Function& fn) {
    Spans::Scope span(spans, "hls.sdc");
    return hls::scheduleFunctionChecked(fn, scheduleOptions);
  };
  Expected<hls::FunctionSchedule> wrapperSchedule = schedule(*out.fn);
  if (!wrapperSchedule.ok())
    return wrapperSchedule.status();
  {
    Spans::Scope span(spans, "hls.area");
    out.area = hls::estimateWorkerArea(*out.fn, *wrapperSchedule);
  }
  for (const pipeline::TaskInfo& task : out.pipelineModule.tasks) {
    Expected<hls::FunctionSchedule> taskSchedule = schedule(*task.fn);
    if (!taskSchedule.ok())
      return taskSchedule.status();
    Spans::Scope span(spans, "hls.area");
    const hls::AreaReport worker =
        hls::estimateWorkerArea(*task.fn, *taskSchedule);
    const int copies = task.parallel ? out.pipelineModule.numWorkers : 1;
    for (int c = 0; c < copies; ++c)
      out.area += worker;
  }
  {
    Spans::Scope span(spans, "hls.area");
    for (const pipeline::ChannelInfo& channel : out.pipelineModule.channels)
      out.area.fifoBramBits += hls::fifoBramBits(
          16, channel.lanes,
          typeBits(channel.type) == 0 ? 1 : typeBits(channel.type));
  }
  plan.shape = out.shape;
  plan.accel = std::move(accel);
  return Status::success();
}

/// Spec-job compile, call for call as the executor's spec path.
Status mirrorSpecCompile(const serve::JobRequest& job, driver::Flow flow,
                         serve::CompiledPlan& plan, Spans& spans) {
  std::optional<fuzz::LoopSpec> spec;
  fuzz::GeneratedLoop generated;
  {
    Spans::Scope span(spans, "ir.build");
    std::string error;
    spec = fuzz::parseSpecLine(job.spec, &error);
    if (!spec)
      return Status::error(ErrorCode::InvalidArgument,
                           "bad fuzz spec: " + error);
    generated = fuzz::buildLoop(*spec);
  }
  ir::Module& module = *generated.module;
  ir::Function* fn = generated.fn;
  {
    Spans::Scope span(spans, "opt.scalar");
    opt::runScalarOptimizations(module);
  }
  {
    Spans::Scope span(spans, "ir.verify");
    if (Status status = ir::verifyModuleStatus(module); !status.ok())
      return status;
  }
  std::optional<analysis::DominatorTree> dom;
  std::optional<analysis::DominatorTree> postDom;
  std::optional<analysis::LoopInfo> loops;
  std::optional<analysis::AliasAnalysis> alias;
  std::optional<analysis::ControlDependence> controlDeps;
  {
    Spans::Scope span(spans, "analysis.cfg");
    dom.emplace(*fn);
    postDom.emplace(*fn, true);
    loops.emplace(*fn, *dom);
  }
  {
    Spans::Scope span(spans, "analysis.alias");
    alias.emplace(*fn, module, *loops);
  }
  {
    Spans::Scope span(spans, "analysis.cfg");
    controlDeps.emplace(*fn, *postDom);
  }
  ir::BasicBlock* header = fn->findBlock(generated.headerName);
  analysis::Loop* loop =
      header != nullptr ? loops->loopWithHeader(header) : nullptr;
  if (loop == nullptr)
    return Status::error(ErrorCode::InvalidArgument,
                         "spec loop header not found after optimization");
  std::optional<analysis::Pdg> pdg;
  std::optional<analysis::SccGraph> sccs;
  {
    Spans::Scope span(spans, "analysis.pdg");
    pdg.emplace(*fn, *loop, *alias, *controlDeps, &plan.remarks);
  }
  {
    Spans::Scope span(spans, "analysis.scc");
    sccs.emplace(
        *pdg,
        [](const ir::Instruction* inst) {
          const auto timing = hls::opTiming(inst->opcode(), inst->type());
          return static_cast<double>(1 + timing.latency);
        },
        &plan.remarks);
  }
  pipeline::PipelinePlan pipelinePlan;
  {
    Spans::Scope span(spans, "pipeline.partition");
    if (flow == driver::Flow::Legup) {
      pipelinePlan = pipeline::sequentialPlan(*sccs, *loop, &plan.remarks);
    } else {
      pipeline::PartitionOptions popts;
      popts.numWorkers = job.workers;
      popts.remarks = &plan.remarks;
      if (flow == driver::Flow::CgpaP2)
        popts.policy = pipeline::ReplicablePolicy::ForceParallel;
      if (Status status = pipeline::checkPartitionOptions(popts); !status.ok())
        return status;
      pipelinePlan = pipeline::partitionLoop(*sccs, *loop, popts);
    }
    plan.shape = pipelinePlan.shapeString();
  }
  {
    Spans::Scope span(spans, "pipeline.transform");
    if (Status status = pipeline::checkTransformPreconditions(pipelinePlan);
        !status.ok())
      return status;
    plan.specPipeline = pipeline::transformLoop(*fn, pipelinePlan,
                                                /*loopId=*/0, &plan.remarks);
  }
  {
    Spans::Scope span(spans, "ir.verify");
    if (Status status = ir::verifyModuleStatus(module); !status.ok())
      return status;
  }
  plan.specModule = std::move(generated.module);
  return Status::success();
}

/// serve::compileJobPlan, pass by pass, with a span per pass. The result
/// is checked against the real compileJobPlan (timed as one span) so the
/// mirror cannot silently drift from the code it stands for.
Expected<std::shared_ptr<serve::CompiledPlan>>
replayCompile(const serve::JobRequest& job, Spans& spans, CompileTally& tally) {
  Expected<driver::Flow> flow = serve::flowFromString(job.flow);
  if (!flow.ok())
    return flow.status();
  // Whichever compile runs second finds the caches warm; alternating the
  // order keeps the mirrored-vs-real ratio centred on 1.
  const bool realFirst = tally.compiles % 2 == 1;
  Expected<std::shared_ptr<serve::CompiledPlan>> real =
      Status::error(ErrorCode::InvalidArgument, "not compiled");
  auto compileReal = [&] {
    Spans::Scope span(spans, "compile.total");
    real = serve::compileJobPlan(job);
    tally.realNs += span.close();
  };
  if (realFirst)
    compileReal();
  auto plan = std::make_shared<serve::CompiledPlan>();
  const double before = spans.covered();
  Status status = !job.kernel.empty()
                      ? mirrorKernelCompile(job, *flow, *plan, spans, tally)
                      : mirrorSpecCompile(job, *flow, *plan, spans);
  if (!status.ok())
    return status;
  {
    Spans::Scope span(spans, "serve.plan_digest");
    const ir::Module& module =
        plan->accel != nullptr ? *plan->accel->module : *plan->specModule;
    plan->irHash =
        trace::hashHex(trace::fnv1a64(ir::printModule(module)));
    plan->remarksDigest = trace::hashHex(
        trace::fnv1a64(trace::remarksJson(plan->remarks).dump(0)));
    for (const auto& fn : module.functions())
      fn->finalizeSlots();
  }
  tally.mirroredNs += spans.covered() - before;
  if (!realFirst)
    compileReal();
  if (!real.ok())
    return real.status();
  if ((*real)->irHash != plan->irHash ||
      (*real)->remarksDigest != plan->remarksDigest) {
    ++tally.hashMismatches;
    std::fprintf(stderr,
                 "cgpad_bench: replayed compile drifted for %s: irHash "
                 "%s vs %s\n",
                 job.compileKey().c_str(), plan->irHash.c_str(),
                 (*real)->irHash.c_str());
  }
  const ir::Module& module =
      plan->accel != nullptr ? *plan->accel->module : *plan->specModule;
  ++tally.compiles;
  tally.irInsts += static_cast<double>(moduleInstructions(module));
  tally.tasks += static_cast<double>(plan->pipeline().tasks.size());
  tally.channels += static_cast<double>(plan->pipeline().channels.size());
  tally.remarks += static_cast<double>(plan->remarks.size());
  return plan;
}

/// serve::JobExecutor's per-worker simulator LRU, rebuilt from public
/// parts (the executor keeps its own private).
class SimulatorLru {
public:
  /// The simulator for `key`, built (span `buildSpan`) on a miss, which
  /// sets `built`.
  sim::SystemSimulator& get(const std::shared_ptr<const serve::CompiledPlan>& plan,
                            const sim::SystemConfig& config,
                            const std::string& key, Spans& spans,
                            const char* buildSpan, bool& built) {
    auto it = slots_.find(key);
    built = it == slots_.end();
    if (built) {
      Spans::Scope span(spans, buildSpan);
      if (slots_.size() >= kSimulatorSlots) {
        auto victim = slots_.begin();
        for (auto cursor = slots_.begin(); cursor != slots_.end(); ++cursor)
          if (cursor->second.lastUsed < victim->second.lastUsed)
            victim = cursor;
        slots_.erase(victim);
      }
      Slot slot;
      slot.plan = plan;
      slot.simulator =
          std::make_unique<sim::SystemSimulator>(plan->pipeline(), config);
      it = slots_.emplace(key, std::move(slot)).first;
    }
    it->second.lastUsed = ++tick_;
    return *it->second.simulator;
  }

private:
  struct Slot {
    std::shared_ptr<const serve::CompiledPlan> plan;
    std::unique_ptr<sim::SystemSimulator> simulator;
    std::uint64_t lastUsed = 0;
  };
  std::map<std::string, Slot> slots_;
  std::uint64_t tick_ = 0;
};

/// One workload image: a built-in kernel's or a generated loop's.
struct Image {
  kernels::Workload kernel;
  fuzz::FuzzWorkload spec;
  interp::Memory* memory = nullptr;
  std::span<const std::uint64_t> args;
};

Image buildImage(const serve::JobRequest& job, const fuzz::LoopSpec* spec) {
  Image image;
  if (spec == nullptr) {
    kernels::WorkloadConfig config;
    config.scale = job.scale;
    config.seed = job.seed;
    image.kernel = kernels::kernelByName(job.kernel)->buildWorkload(config);
    image.memory = image.kernel.memory.get();
    image.args = image.kernel.args;
  } else {
    image.spec = fuzz::buildWorkload(*spec);
    image.memory = image.spec.memory.get();
    image.args = image.spec.args;
  }
  return image;
}

/// Replays jobs the way one cgpad worker executes them (serve::JobExecutor
/// ::run), one public call per span.
class Replayer {
public:
  Replayer() : cache_(kPlanCacheEntries) {}

  /// Replay one frame; a failed or incorrect job counts as a failure.
  void replay(const std::string& frame) {
    const auto start = Clock::now();
    const double coveredBefore = spans_.covered();
    const bool ok = replayJob(frame);
    if (charged_) {
      ++jobs_;
      wallNs_ += std::chrono::duration<double, std::nano>(Clock::now() -
                                                           start)
                     .count();
      coveredNs_ += spans_.covered() - coveredBefore;
    }
    if (!ok)
      ++failures_;
  }

  void setCharged(bool charged) {
    charged_ = charged;
    spans_.setCharged(charged);
  }

  /// The per-layer metrics, in report order; `failedGuards` lists tripped
  /// drift guards.
  std::vector<std::pair<std::string, double>>
  metrics(std::vector<std::string>& failedGuards) const {
    const double jobs = static_cast<double>(std::max<std::size_t>(jobs_, 1));
    const double compiles =
        static_cast<double>(std::max<std::size_t>(tally_.compiles, 1));
    auto perJobUs = [&](const char* span) {
      return spans_.total(span) / jobs / 1000.0;
    };
    auto perCycleNs = [&](const char* span) {
      return cycles_ == 0.0 ? 0.0 : spans_.total(span) / cycles_;
    };
    auto perCompileUs = [&](const std::string& span) {
      return spans_.total(span) / compiles / 1000.0;
    };
    std::vector<std::pair<std::string, double>> out;
    auto set = [&out](const std::string& name, double value) {
      out.emplace_back(name, value);
    };
    set("replay.jobs", static_cast<double>(jobs_));
    set("replay.compiles", static_cast<double>(tally_.compiles));
    set("replay.compiles_per_job",
            static_cast<double>(streamCompiles_) / jobs);
    for (const char* span :
         {"compile.total", "ir.build", "ir.verify", "opt.scalar",
          "analysis.profile", "analysis.cfg", "analysis.alias", "analysis.pdg",
          "analysis.scc", "pipeline.partition", "pipeline.transform",
          "hls.sdc", "hls.area", "serve.plan_digest"})
      set(std::string(span) + "_us", perCompileUs(span));
    set("serve.parse_us", perJobUs("serve.parse"));
    set("sim.build_us", builds_ == 0 ? 0.0
                                         : spans_.total("sim.build") /
                                               static_cast<double>(builds_) /
                                               1000.0);
    set("sim.builds_per_job", static_cast<double>(streamBuilds_) / jobs);
    for (const char* span :
         {"sim.run", "kernels.workload_build",
          "verify.reference", "verify.compare", "trace.stats_doc",
          "serve.result_doc", "trace.json_dump"})
      set(std::string(span) + "_us", perJobUs(span));
    set("compile.ir_insts", tally_.irInsts / compiles);
    set("compile.tasks", tally_.tasks / compiles);
    set("compile.channels", tally_.channels / compiles);
    set("compile.remarks", tally_.remarks / compiles);
    set("sim.ns_per_cycle_threaded", perCycleNs("sim.run"));
    set("sim.ns_per_cycle_interp", perCycleNs("sim.interp_run"));
    set("sim.cycles_per_job", cycles_ / jobs);
    set("sim.engine_cycles_per_job", engineCycles_ / jobs);
    set("sim.fifo_pops_per_job", fifoPops_ / jobs);
    set("sim.dcache_accesses_per_job", dcacheAccesses_ / jobs);
    set("kernels.workload_kib", workloadKib_ / jobs);
    set("replay.response_kib", responseKib_ / jobs);
    set("interp.ns_per_instr", tally_.interpInstrs == 0.0
                                        ? 0.0
                                        : tally_.interpNs /
                                              tally_.interpInstrs);
    const double coverage = wallNs_ == 0.0 ? 0.0 : coveredNs_ / wallNs_;
    const double compileRatio =
        tally_.realNs == 0.0 ? 1.0 : tally_.mirroredNs / tally_.realNs;
    set("replay.coverage_ratio", coverage);
    set("replay.compile_ratio", compileRatio);

    if (jobs_ == 0)
      failedGuards.push_back("no job replayed");
    if (failures_ != 0)
      failedGuards.push_back(std::to_string(failures_) +
                             " replayed job(s) failed or answered incorrectly");
    if (tally_.hashMismatches != 0)
      failedGuards.push_back(std::to_string(tally_.hashMismatches) +
                             " replayed compile(s) drifted from compileJobPlan");
    if (coverage < kMinCoverage)
      failedGuards.push_back("spans cover only " + std::to_string(coverage) +
                             " of the replay wall time (need >= " +
                             std::to_string(kMinCoverage) + ")");
    if (std::abs(compileRatio - 1.0) > kCompileTolerance)
      failedGuards.push_back(
          "mirrored compile spans sum to " + std::to_string(compileRatio) +
          " of compileJobPlan's wall time (tolerance " +
          std::to_string(kCompileTolerance) + ")");
    return out;
  }

private:
  bool replayJob(const std::string& frame) {
    Expected<serve::JobRequest> parsed = [&] {
      Spans::Scope span(spans_, "serve.parse");
      return serve::jobFromFrame(frame);
    }();
    if (!parsed.ok())
      return false;
    const serve::JobRequest& job = *parsed;
    const std::string key = job.compileKey();

    std::shared_ptr<const serve::CompiledPlan> plan = [&] {
      Spans::Scope span(spans_, "serve.cache_lookup");
      return cache_.lookup(key);
    }();
    if (plan == nullptr) {
      Expected<std::shared_ptr<serve::CompiledPlan>> compiled =
          replayCompile(job, spans_, tally_);
      if (!compiled.ok())
        return false;
      if (charged_)
        ++streamCompiles_;
      Spans::Scope span(spans_, "serve.cache_insert");
      plan = cache_.insert(key, *compiled);
    }

    sim::SystemConfig config;
    config.fifoDepth = job.fifoDepth;
    config.backend = job.backend;
    if (job.maxCycles != 0)
      config.maxCycles = job.maxCycles;
    const std::string simKey =
        plan->irHash + "|f" + std::to_string(job.fifoDepth) + "|b" +
        sim::toString(config.backend) + "|m" + std::to_string(job.maxCycles);
    bool built = false;
    sim::SystemSimulator& simulator =
        threaded_.get(plan, config, simKey, spans_, "sim.build", built);
    if (built) {
      ++builds_;
      if (charged_)
        ++streamBuilds_;
    }

    std::optional<fuzz::LoopSpec> spec;
    Image image = [&] {
      Spans::Scope span(spans_, "kernels.workload_build");
      if (!job.spec.empty())
        spec = fuzz::parseSpecLine(job.spec);
      return buildImage(job, spec ? &*spec : nullptr);
    }();
    if (!job.spec.empty() && !spec)
      return false;
    Expected<sim::SimResult> simulated = [&] {
      Spans::Scope span(spans_, "sim.run");
      return simulator.runChecked(*image.memory, image.args);
    }();
    if (!simulated.ok())
      return false;
    const sim::SimResult& result = *simulated;

    // Reference model on a fresh image: native golden for kernels, the
    // sequential interpreter for generated loops.
    Image reference = [&] {
      Spans::Scope span(spans_, "kernels.workload_build");
      return buildImage(job, spec ? &*spec : nullptr);
    }();
    std::uint64_t refReturn = 0;
    if (!spec) {
      Spans::Scope span(spans_, "verify.reference");
      refReturn = kernels::kernelByName(job.kernel)->runReference(
          *reference.memory, reference.args);
    } else {
      Spans::Scope span(spans_, "verify.reference");
      const fuzz::GeneratedLoop golden = fuzz::buildLoop(*spec);
      interp::Interpreter interp(*reference.memory);
      const auto start = Clock::now();
      const interp::InterpResult goldenResult =
          interp.run(*golden.fn, reference.args);
      tally_.interpNs +=
          std::chrono::duration<double, std::nano>(Clock::now() - start)
              .count();
      tally_.interpInstrs +=
          static_cast<double>(goldenResult.instructionsExecuted);
      refReturn = goldenResult.returnValue;
    }
    const bool correct = [&] {
      Spans::Scope span(spans_, "verify.compare");
      return result.returnValue == refReturn &&
             image.memory->raw() == reference.memory->raw();
    }();

    trace::JsonValue stats = [&] {
      Spans::Scope span(spans_, "trace.stats_doc");
      trace::StatsDocInputs inputs;
      inputs.result = &result;
      inputs.pipeline = &plan->pipeline();
      inputs.freqMHz = config.freqMHz;
      inputs.kernel = !job.kernel.empty() ? job.kernel : job.spec;
      inputs.flow = driver::flowName(*serve::flowFromString(job.flow));
      inputs.correct = correct;
      inputs.workers = job.workers;
      inputs.fifoDepth = job.fifoDepth;
      inputs.scale = job.scale;
      inputs.seed = job.seed;
      return trace::buildStatsDocument(inputs);
    }();
    trace::JsonValue response = [&] {
      Spans::Scope span(spans_, "serve.result_doc");
      return serve::jobResultOk(job.id, true, plan->irHash,
                                plan->remarks.size(), plan->remarksDigest,
                                result.cycles, correct, std::move(stats));
    }();
    const double responseKib = [&] {
      Spans::Scope span(spans_, "trace.json_dump");
      return static_cast<double>(response.dump(0).size()) / 1024.0;
    }();

    // The interpreting tier on the same plan and a fresh image: its
    // ns/cycle next to the threaded tier's, and a tier bit-identity check.
    sim::SystemConfig interpConfig = config;
    interpConfig.backend = sim::SimBackend::Interp;
    sim::SystemSimulator& interpSim =
        interp_.get(plan, interpConfig, simKey + "|interp", spans_,
                    "sim.interp_build", built);
    Image interpImage = [&] {
      Spans::Scope span(spans_, "sim.interp_workload");
      return buildImage(job, spec ? &*spec : nullptr);
    }();
    Expected<sim::SimResult> interpRun = [&] {
      Spans::Scope span(spans_, "sim.interp_run");
      return interpSim.runChecked(*interpImage.memory, interpImage.args);
    }();
    const bool tiersAgree = interpRun.ok() &&
                            interpRun->cycles == result.cycles &&
                            interpRun->returnValue == result.returnValue;

    if (charged_) {
      cycles_ += static_cast<double>(result.cycles);
      engineCycles_ +=
          static_cast<double>(result.cyclesActive + result.cyclesStalled);
      fifoPops_ += static_cast<double>(result.fifoPops);
      dcacheAccesses_ += static_cast<double>(result.cache.accesses);
      workloadKib_ += static_cast<double>(image.memory->size()) / 1024.0;
      responseKib_ += responseKib;
    }
    if (!correct || !tiersAgree)
      std::fprintf(stderr, "cgpad_bench: replay of %s: %s\n",
                   frame.substr(0, 120).c_str(),
                   !correct ? "incorrect result" : "tiers disagree");
    return correct && tiersAgree;
  }

  Spans spans_;
  CompileTally tally_;
  serve::PlanCache cache_;
  SimulatorLru threaded_;
  SimulatorLru interp_;
  bool charged_ = true;
  std::size_t jobs_ = 0;
  std::size_t failures_ = 0;
  std::size_t streamCompiles_ = 0;
  std::size_t builds_ = 0;
  std::size_t streamBuilds_ = 0;
  double wallNs_ = 0.0;
  double coveredNs_ = 0.0;
  double cycles_ = 0.0;
  double engineCycles_ = 0.0;
  double fifoPops_ = 0.0;
  double dcacheAccesses_ = 0.0;
  double workloadKib_ = 0.0;
  double responseKib_ = 0.0;
};

int runReplay(const Args& args) {
  Replayer replayer;
  replayer.setCharged(false);
  for (const serve::JobRequest& job : warmSet(args.workload))
    replayer.replay(serve::jobToJson(job).dump(0));
  replayer.setCharged(true);

  // Replay the stream's prefix for the time budget (at least one job);
  // the prefix grows by regeneration, which is deterministic.
  std::vector<serve::JobRequest> stream;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds);
  for (std::size_t i = 0; i == 0 || Clock::now() < deadline; ++i) {
    if (i == stream.size())
      stream = jobStream(args.workload, args.seed,
                         std::max<std::size_t>(64, stream.size() * 2));
    replayer.replay(serve::jobToJson(stream[i]).dump(0));
  }

  std::vector<std::string> failedGuards;
  const auto metrics = replayer.metrics(failedGuards);
  for (const std::string& guard : failedGuards)
    std::fprintf(stderr, "cgpad_bench: replay drift guard: %s\n",
                 guard.c_str());
  // Every digit as measured (the JSON model prints six).
  std::string line = "{";
  char number[32];
  for (const auto& [name, value] : metrics) {
    std::snprintf(number, sizeof(number), "%.17g", value);
    line += (line.size() > 1 ? ", \"" : "\"") + name + "\": " + number;
  }
  std::printf("%s}\n", line.c_str());
  return failedGuards.empty() ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  Args args;
  if (Status status = parseArgs(argc, argv, args); !status.ok())
    return usage(status.message());
  if (args.command == "frames") {
    printFrames(jobStream(args.workload, args.seed, args.count), args.trace);
    return 0;
  }
  if (args.command == "warm") {
    printFrames(warmSet(args.workload), args.trace);
    return 0;
  }
  if (args.command == "direct")
    return runDirect(args);
  if (args.command == "replay")
    return runReplay(args);
  return usage("unknown command '" + args.command + "'");
}
