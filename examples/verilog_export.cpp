/**
 * Verilog export: generate the RTL of the baseline PE and of a
 * machine-learning domain PE (PE ML), pipeline the latter, and write
 * both modules plus the CGRA configuration bitstream of a mapped
 * application to ./apex_rtl_out/.
 *
 * Run:  ./build/examples/verilog_export
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "cgra/bitstream.hpp"
#include "core/evaluate.hpp"
#include "mapper/select.hpp"
#include "pe/baseline.hpp"
#include "pe/verilog.hpp"
#include "pipeline/pe_pipeline.hpp"
#include "runtime/record.hpp"

int
main()
{
    using namespace apex;
    const auto &tech = model::defaultTech();
    core::Explorer ex;

    const std::filesystem::path out_dir = "apex_rtl_out";
    std::filesystem::create_directories(out_dir);

    auto write = [&](const std::filesystem::path &name,
                     const std::string &text) {
        const std::string path = (out_dir / name).string();
        const Status s =
            runtime::publishFile(path, text, /*durable=*/false);
        if (!s.ok()) {
            std::printf("%s\n", s.message().c_str());
            std::exit(1);
        }
        std::printf("  wrote %s (%zu bytes)\n", path.c_str(),
                    text.size());
    };

    // Baseline PE.
    const pe::PeSpec base = pe::baselinePe();
    write("pe_base.v", pe::emitVerilog(base));

    // PE ML, automatically pipelined.
    core::PeVariant pe_ml =
        ex.domainVariant(ex.analyze(apps::mlApps()).value(), 1, "pe_ml")
            .value();
    const auto pipe = pipeline::pipelinePe(pe_ml.spec, tech);
    std::printf("  pe_ml: %d stage(s), %.2f -> %.2f ns\n",
                pipe.stages, pipe.unpipelined, pipe.period);
    write("pe_ml.v", pe::emitVerilog(pe_ml.spec));

    // Map MobileNet onto PE ML and emit its bitstream.
    const auto app = apps::mobilenetLayer(2);
    mapper::RewriteRuleSynthesizer synth(pe_ml.spec);
    mapper::InstructionSelector selector(
        synth.synthesizeLibrary(pe_ml.patterns));
    const auto sel = selector.map(app.graph);
    if (!sel.success) {
        std::printf("mapping failed: %s\n", sel.error.c_str());
        return 1;
    }
    const cgra::Fabric fabric(32, 16);
    const auto placement = cgra::place(fabric, sel.mapped);
    const auto routing = cgra::route(fabric, placement);
    if (!placement.success || !routing.success) {
        std::printf("place-and-route failed\n");
        return 1;
    }
    const auto bs = cgra::generateBitstream(
        fabric, sel.mapped, selector.rules(), pe_ml.spec, placement,
        routing);
    std::string hex;
    char buf[32];
    for (std::uint64_t w : bs.words) {
        std::snprintf(buf, sizeof buf, "%016llx\n",
                      static_cast<unsigned long long>(w));
        hex += buf;
    }
    write("mobilenet_on_pe_ml.bit.hex", hex);
    std::printf("  bitstream: %d bits, digest %016llx\n", bs.bits,
                static_cast<unsigned long long>(bs.digest()));
    return 0;
}
