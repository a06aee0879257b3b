/**
 * @file
 * paper_tables: the E3-E9 / A1 / A2 experiment drivers plus a small
 * compiled (tinyc) table, repeated at one job and at one job per vCPU.
 * Many short fresh-machine runs on both ISAs and several window
 * counts: the workload that bypasses every campaign-only optimisation,
 * and the only one that exercises vax80 and the compiler. Its inputs
 * are the paper's fixed suite, so it ignores the seed; its outputs are
 * checked against the committed reference tables in ref/.
 */

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "common.hh"
#include "trace.hh"

#include "asm/assembler.hh"
#include "cc/compiler.hh"
#include "core/experiments.hh"
#include "core/parallel.hh"
#include "core/table.hh"
#include "vax/cpu.hh"
#include "workloads/workload.hh"

namespace cbench {

namespace {

using namespace risc1;

const char *const ReferencePath = "campaign_bench/ref/paper_tables.txt";

/** Small tinyc programs for the compiled table: the compiler's output
 *  must run to the same result on both machines. */
struct TinyProgram
{
    const char *name;
    const char *source;
    uint32_t expected;
};

const TinyProgram TinyPrograms[] = {
    {"fib18", R"(
fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
main() { return fib(18); }
)",
     2584},
    {"primes1000", R"(
main() {
    var count = 0; var p = 2;
    while (p < 1000) {
        if (mem[p] == 0) {
            count = count + 1;
            var m = p * 2;
            while (m < 1000) { mem[m] = 1; m = m + p; }
        }
        p = p + 1;
    }
    return count;
}
)",
     168},
};

struct Piece
{
    std::string name;
    std::string text;
};

struct TinyRow
{
    std::vector<std::string> cells;
    bool ok = false;
};

TinyRow
runTiny(const TinyProgram &prog)
{
    cc::RiscCompileResult risc_cc;
    {
        Span s("cc.compileToRiscAsm");
        risc_cc = cc::compileToRiscAsm(prog.source);
    }
    cc::VaxCompileResult vax_cc;
    {
        Span s("cc.compileToVax");
        vax_cc = cc::compileToVax(prog.source);
    }
    if (!risc_cc.ok || !vax_cc.ok)
        throw std::runtime_error(std::string(prog.name) +
                                 ": compile failed: " + risc_cc.error +
                                 vax_cc.error);
    assembler::AsmResult assembled;
    {
        Span s("asm.assemble");
        assembled = assembler::assemble(risc_cc.assembly);
    }
    if (!assembled.ok())
        throw std::runtime_error(std::string(prog.name) +
                                 ": compiled code does not assemble");
    sim::Cpu risc;
    {
        Span s("sim.load");
        risc.load(assembled.program);
    }
    sim::ExecResult risc_run;
    {
        Span s("sim.run");
        risc_run = risc.run();
    }
    vax::VaxCpu vaxc;
    {
        Span s("vax.load");
        vaxc.load(vax_cc.program);
    }
    sim::ExecResult vax_run;
    {
        Span s("vax.run");
        vax_run = vaxc.run();
        s.count(vax_run.instructions);
    }
    const uint32_t rv = risc.memory().peek32(cc::CcResultAddr);
    const uint32_t vv = vaxc.memory().peek32(cc::CcResultAddr);
    TinyRow row;
    row.ok = risc_run.halted() && vax_run.halted() && rv == prog.expected &&
             vv == prog.expected;
    row.cells = {prog.name, row.ok ? "y" : "N", core::cell(uint64_t{rv}),
                 core::cell(risc_run.instructions),
                 core::cell(risc_run.cycles),
                 core::cell(vax_run.instructions), core::cell(vax_run.cycles)};
    return row;
}

std::string
compiledTable(unsigned jobs)
{
    const size_t n = sizeof TinyPrograms / sizeof TinyPrograms[0];
    const auto rows = core::ParallelRunner(jobs).map<TinyRow>(
        n, [](size_t i) { return runTiny(TinyPrograms[i]); });
    core::Table table({"program", "ok", "result", "RISC insts", "RISC cyc",
                       "vax insts", "vax cyc"});
    for (const TinyRow &row : rows)
        table.row(row.cells);
    return "CC: tinyc programs compiled for both machines\n" + table.str();
}

/** E5 (execTime) replayed through the layers, as runRisc/runVax run. */
std::vector<core::ExecTimeRow>
replayExecTime()
{
    std::vector<core::ExecTimeRow> rows;
    for (const workloads::Workload &wl : workloads::allWorkloads()) {
        core::ExecTimeRow row;
        row.name = wl.name;
        assembler::Program program;
        {
            Span s("asm.buildRisc");
            program = workloads::buildRisc(wl, wl.defaultScale);
        }
        std::unique_ptr<sim::Cpu> risc;
        {
            Span s("sim.Cpu");
            risc = std::make_unique<sim::Cpu>();
        }
        {
            Span s("sim.load");
            risc->load(program);
        }
        sim::ExecResult risc_run;
        {
            Span s("sim.run");
            risc_run = risc->run();
        }
        vax::VaxProgram vprog;
        {
            Span s("vax.buildVax");
            vprog = wl.buildVax(wl.defaultScale);
        }
        std::unique_ptr<vax::VaxCpu> vaxc;
        {
            Span s("vax.VaxCpu");
            vaxc = std::make_unique<vax::VaxCpu>();
        }
        {
            Span s("vax.load");
            vaxc->load(vprog);
        }
        sim::ExecResult vax_run;
        {
            Span s("vax.run");
            vax_run = vaxc->run();
            s.count(vax_run.instructions);
        }
        const uint32_t expected = wl.expected(wl.defaultScale);
        row.resultsMatch =
            risc_run.halted() && vax_run.halted() &&
            risc->memory().peek32(workloads::ResultAddr) == expected &&
            vaxc->memory().peek32(workloads::ResultAddr) == expected;
        row.riscInsts = risc->stats().instructions;
        row.riscCycles = risc->stats().cycles;
        row.vaxInsts = vaxc->stats().instructions;
        row.vaxCycles = vaxc->stats().cycles;
        rows.push_back(row);
    }
    return rows;
}

/**
 * One full table set. `replay_e5` swaps the E5 driver for the layer
 * replay above (the traced run); everything else is the drivers
 * themselves, each inside a core span, and the compiled table, whose
 * cc/asm/sim/vax calls have spans of their own.
 */
std::vector<Piece>
tableSet(unsigned jobs, std::vector<core::ExecTimeRow> *replay_e5 = nullptr)
{
    using namespace core;
    std::vector<Piece> out;
    const auto add = [&](const char *span, const char *name, auto &&make) {
        Span s(span);
        out.push_back({name, make()});
    };
    add("core.E3", "E3", [&] { return callOverheadTable(
                                   callOverhead(6, 2000, jobs)); });
    add("core.E4", "E4", [&] { return codeSizeTable(codeSize(jobs)); });
    if (replay_e5)
        *replay_e5 = replayExecTime();
    else
        add("core.E5", "E5",
            [&] { return execTimeTable(execTime(jobs)); });
    add("core.E6", "E6", [&] {
        return windowSweepTable(windowSweep({2, 4, 6, 8, 12, 16}, jobs));
    });
    add("core.E7", "E7", [&] { return memTrafficTable(memTraffic(jobs)); });
    add("core.E8", "E8", [&] { return instrMixTable(instrMix(jobs)); });
    add("core.E8", "E8-opcodes", [&] {
        return opcodeFrequencyTable(opcodeFrequencies(jobs));
    });
    add("core.E9", "E9", [&] { return delaySlotTable(delaySlots(jobs)); });
    add("core.A1", "A1",
        [&] { return windowAblationTable(windowAblation(jobs)); });
    add("core.A2", "A2",
        [&] { return immediateUsageTable(immediateUsage(jobs)); });
    add("bench.compiled", "CC", [&] { return compiledTable(jobs); });
    return out;
}

/** Pieces of a rendered set: "=== NAME" lines, each followed by its
 *  table text. */
std::vector<Piece>
parse(std::istream &in)
{
    std::vector<Piece> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("=== ", 0) == 0)
            out.push_back({line.substr(4), ""});
        else if (!out.empty())
            out.back().text += line + "\n";
    }
    return out;
}

std::string
render(const std::vector<Piece> &pieces)
{
    std::string out;
    for (const Piece &p : pieces)
        out += "=== " + p.name + "\n" + p.text +
               (p.text.empty() || p.text.back() == '\n' ? "" : "\n");
    return out;
}

/** Check every piece against the reference, each as one operation
 *  or, unless `operations`, as a gate; on any mismatch, keep the
 *  actual set beside the spans for diffing. */
void
checkPieces(Result &res, const Options &options,
            const std::vector<Piece> &ref, const std::vector<Piece> &got,
            const std::string &tag, bool operations)
{
    std::istringstream rendered(render(got));
    bool all = true;
    for (const Piece &p : parse(rendered)) {
        bool ok = false;
        for (const Piece &r : ref)
            if (r.name == p.name)
                ok = r.text == p.text;
        const std::string what =
            tag + ": table " + p.name + " differs from " + ReferencePath;
        if (operations)
            res.check(ok, what);
        else
            res.gate(ok, what);
        all = all && ok;
    }
    if (!all) {
        std::filesystem::create_directories(options.outDir);
        std::ofstream(options.outDir + "/paper_tables.actual.txt")
            << render(got);
    }
}

} // namespace

Result
runTablesWorkload(const Options &options)
{
    Result res;
    const unsigned jmax = hostJobs();
    workloads::allWorkloads(); // its lazy construction is set-up
    reportSetup(res, options, nowNs());
    if (options.setupProbe)
        return res;
    std::ifstream ref_file(ReferencePath);
    const std::vector<Piece> ref = parse(ref_file);

    if (options.trace) {
        // Passes until options.seconds: each renders the set untraced
        // and traced (their difference is the tracing overhead), with
        // E5 replayed through the layers.
        Tracer &tr = Tracer::instance();
        std::vector<core::ExecTimeRow> e5;
        double plain_sec = 0, traced_sec = 0;
        unsigned passes = 0;
        const uint64_t begin = nowNs();
        do {
            std::vector<core::ExecTimeRow> plain_e5, traced_e5;
            uint64_t t = nowNs();
            const auto plain_set = tableSet(1, &plain_e5);
            plain_sec += secondsSince(t);
            tr.setEnabled(true);
            t = nowNs();
            std::vector<Piece> set;
            {
                Span root(TraceRoot);
                set = tableSet(1, &traced_e5);
            }
            traced_sec += secondsSince(t);
            tr.setEnabled(false);
            ++passes;
            checkPieces(res, options, ref, plain_set, "untraced pass", true);
            checkPieces(res, options, ref, set, "traced pass", true);
            e5.insert(e5.end(), plain_e5.begin(), plain_e5.end());
            e5.insert(e5.end(), traced_e5.begin(), traced_e5.end());
        } while (secondsSince(begin) < options.seconds);
        const auto ms = [&](const std::vector<double> &d) {
            return sum(d) * 1e3 / double(passes);
        };
        const auto builds = tr.durations("asm.buildRisc");
        res.metric("asm.build_ms", ms(builds), "ms", builds.size());
        res.metric("asm.builds", double(builds.size()) / double(passes),
                   "count", builds.size());
        const auto vax_runs = tr.durations("vax.run");
        res.metric("vax.exec_ms", ms(vax_runs), "ms", vax_runs.size());
        res.metric("vax.minst_per_s",
                   double(tr.totalCount("vax.run")) / sum(vax_runs) * 1e-6,
                   "Minst/s", vax_runs.size());
        auto compiles = tr.durations("cc.compileToRiscAsm");
        const auto vax_compiles = tr.durations("cc.compileToVax");
        compiles.insert(compiles.end(), vax_compiles.begin(),
                        vax_compiles.end());
        res.metric("cc.compile_ms", ms(compiles), "ms", compiles.size());
        reportLayers(res, traced_sec - plain_sec, passes);

        const auto lib = core::execTime(jmax);
        for (size_t i = 0; i < e5.size(); ++i) {
            const core::ExecTimeRow &want = lib[i % lib.size()];
            res.check(want.name == e5[i].name &&
                          want.resultsMatch == e5[i].resultsMatch &&
                          want.riscInsts == e5[i].riscInsts &&
                          want.riscCycles == e5[i].riscCycles &&
                          want.vaxInsts == e5[i].vaxInsts &&
                          want.vaxCycles == e5[i].vaxCycles,
                      "replayed E5 row " + e5[i].name +
                          " differs from execTime's");
        }
        res.notes.push_back(std::to_string(passes) +
                            " traced passes of the table set");
        writeSpans(options);
        return res;
    }

    // ---- timed window: full table sets, j1 and jmax blocks ----
    // The operations are the tables of each job count's first set, so
    // their number does not depend on how many legs the host runs;
    // every later set is checked too, as a gate.
    struct Set
    {
        std::vector<Piece> pieces;
        std::string tag;
        bool first;
    };
    std::vector<Set> sets;
    const Window window =
        timedWindow(options.seconds, [&](bool wide, unsigned k) {
            const uint64_t t = nowNs();
            std::vector<Piece> set = tableSet(wide ? jmax : 1);
            const double sec = secondsSince(t);
            sets.push_back({std::move(set),
                            std::string(wide ? "jmax" : "j1") + " leg " +
                                std::to_string(k),
                            k == 0});
            return sec;
        });
    for (const Set &set : sets)
        checkPieces(res, options, ref, set.pieces, set.tag, set.first);

    reportWindow(res, window);
    res.notes.push_back("unit = one full E3-E9/A1/A2 + compiled table "
                        "set; jmax = " + std::to_string(jmax) + " jobs");
    return res;
}

} // namespace cbench
