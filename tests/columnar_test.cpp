// Columnar trace substrate suite (DESIGN.md §14): round trips, chunk
// boundaries, CSV byte-stability, malformed-file rejection with byte offsets,
// chunked-generation byte-identity across thread counts and chunk sizes, and
// the streaming lint/fidelity paths against their in-RAM counterparts.
#include "trace/columnar.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/sampler.hpp"
#include "lint/trace_lint.hpp"
#include "metrics/fidelity.hpp"
#include "trace/io.hpp"
#include "trace/synthetic.hpp"
#include "util/thread_pool.hpp"
#include "temp_path.hpp"

namespace cpt::trace {
namespace {

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void spit(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Dataset small_world(std::size_t phones = 40, std::uint64_t seed = 33) {
    SyntheticWorldConfig cfg;
    cfg.population = {phones, phones / 4, phones / 8};
    cfg.seed = seed;
    return SyntheticWorldGenerator(cfg).generate();
}

void expect_datasets_equal(const Dataset& a, const Dataset& b) {
    ASSERT_EQ(a.generation, b.generation);
    ASSERT_EQ(a.streams.size(), b.streams.size());
    for (std::size_t i = 0; i < a.streams.size(); ++i) {
        const auto& sa = a.streams[i];
        const auto& sb = b.streams[i];
        EXPECT_EQ(sa.ue_id, sb.ue_id);
        EXPECT_EQ(sa.device, sb.device);
        EXPECT_EQ(sa.hour_of_day, sb.hour_of_day);
        ASSERT_EQ(sa.events.size(), sb.events.size());
        for (std::size_t k = 0; k < sa.events.size(); ++k) {
            EXPECT_EQ(sa.events[k].type, sb.events[k].type);
            // The columnar side stores microsecond ticks.
            EXPECT_DOUBLE_EQ(
                ticks_to_timestamp(timestamp_to_ticks(sa.events[k].timestamp)),
                sb.events[k].timestamp);
        }
    }
}

TEST(ColumnarFormat, TickQuantizationRoundTripsCsvPrecision) {
    // Every %.6f-printable timestamp must survive the tick representation.
    for (const double t : {0.0, 0.000001, 0.05, 1.5, 3599.999999, 123.456789}) {
        EXPECT_DOUBLE_EQ(ticks_to_timestamp(timestamp_to_ticks(t)), t);
    }
}

TEST(ColumnarFormat, DatasetRoundTrip) {
    const auto ds = small_world();
    const std::string path = test::temp_path("cpt_columnar_roundtrip.cpt");
    write_columnar_file(path, ds, 16);
    const auto back = read_columnar_file(path);
    expect_datasets_equal(ds, back);
    std::remove(path.c_str());
}

TEST(ColumnarFormat, CsvColumnarCsvIsByteStable) {
    const auto ds = small_world();
    const std::string csv_a = test::temp_path("cpt_columnar_a.csv");
    const std::string col = test::temp_path("cpt_columnar_mid.cpt");
    const std::string csv_b = test::temp_path("cpt_columnar_b.csv");
    write_csv_file(csv_a, ds);

    const auto stats = csv_to_columnar(csv_a, col, 16);
    EXPECT_EQ(stats.streams, ds.streams.size());
    columnar_to_csv(col, csv_b);

    EXPECT_EQ(slurp(csv_a), slurp(csv_b));
    std::remove(csv_a.c_str());
    std::remove(col.c_str());
    std::remove(csv_b.c_str());
}

TEST(ColumnarFormat, ChunkBoundariesPreserveStreamOrder) {
    const auto ds = small_world();
    ASSERT_GT(ds.streams.size(), 7u);
    const std::string path = test::temp_path("cpt_columnar_chunks.cpt");
    ColumnarStats stats;
    {
        ColumnarWriter writer(path, ds.generation, 3);  // force many tiny chunks
        for (const auto& s : ds.streams) writer.append(s);
        stats = writer.finish();
    }
    EXPECT_EQ(stats.streams, ds.streams.size());
    EXPECT_EQ(stats.chunks, (ds.streams.size() + 2) / 3);

    ColumnarReader reader(path);
    EXPECT_EQ(reader.total_streams(), ds.streams.size());
    StreamBatch batch;
    std::size_t i = 0;
    while (reader.next(batch)) {
        EXPECT_LE(batch.size(), 3u);
        for (std::size_t k = 0; k < batch.size(); ++k, ++i) {
            EXPECT_EQ(batch.ue_ids[k], ds.streams[i].ue_id);
            EXPECT_EQ(batch.events_of(k).size(), ds.streams[i].events.size());
        }
    }
    EXPECT_EQ(i, ds.streams.size());

    // rewind() restarts at the first chunk.
    reader.rewind();
    ASSERT_TRUE(reader.next(batch));
    EXPECT_EQ(batch.ue_ids.front(), ds.streams.front().ue_id);
    std::remove(path.c_str());
}

TEST(ColumnarFormat, EmptyDatasetRoundTrip) {
    const std::string path = test::temp_path("cpt_columnar_empty.cpt");
    Dataset empty;
    empty.generation = cellular::Generation::kNr5G;
    write_columnar_file(path, empty);

    ColumnarReader reader(path);
    EXPECT_EQ(reader.generation(), cellular::Generation::kNr5G);
    EXPECT_EQ(reader.total_streams(), 0u);
    EXPECT_EQ(reader.num_chunks(), 0u);
    StreamBatch batch;
    EXPECT_FALSE(reader.next(batch));

    const auto back = read_columnar_file(path);
    EXPECT_EQ(back.generation, cellular::Generation::kNr5G);
    EXPECT_TRUE(back.streams.empty());
    std::remove(path.c_str());
}

TEST(ColumnarFormat, TruncatedFileRejectedWithOffset) {
    const auto ds = small_world(10);
    const std::string path = test::temp_path("cpt_columnar_trunc.cpt");
    write_columnar_file(path, ds);
    const std::string bytes = slurp(path);

    spit(path, bytes.substr(0, bytes.size() - 5));
    try {
        ColumnarReader reader(path);
        FAIL() << "truncated file must be rejected";
    } catch (const std::exception& e) {
        EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos) << e.what();
    }

    // Below the minimum well-formed size the reader names the defect class.
    spit(path, bytes.substr(0, 20));
    try {
        ColumnarReader reader(path);
        FAIL() << "tiny file must be rejected";
    } catch (const std::exception& e) {
        EXPECT_NE(std::string(e.what()).find("too small"), std::string::npos) << e.what();
    }
    std::remove(path.c_str());
}

TEST(ColumnarFormat, CorruptMagicsRejectedWithOffset) {
    const auto ds = small_world(10);
    const std::string path = test::temp_path("cpt_columnar_corrupt.cpt");
    write_columnar_file(path, ds);
    const std::string bytes = slurp(path);

    {  // header magic
        std::string bad = bytes;
        bad[0] = 'X';
        spit(path, bad);
        try {
            ColumnarReader reader(path);
            FAIL() << "bad file magic must be rejected";
        } catch (const std::exception& e) {
            EXPECT_NE(std::string(e.what()).find("bad file magic at byte offset 0"),
                      std::string::npos)
                << e.what();
        }
    }
    {  // first chunk magic sits directly after the 12-byte header
        std::string bad = bytes;
        bad[12] = 'X';
        spit(path, bad);
        ColumnarReader reader(path);
        StreamBatch batch;
        try {
            reader.next(batch);
            FAIL() << "bad chunk magic must be rejected";
        } catch (const std::exception& e) {
            EXPECT_NE(std::string(e.what()).find("bad chunk magic at byte offset 12"),
                      std::string::npos)
                << e.what();
        }
    }
    std::remove(path.c_str());
}

TEST(ColumnarFormat, CorruptDeviceColumnRejectedAtExactOffset) {
    // One single-character UE so the device byte's position is fixed: 12-byte
    // header + 24-byte chunk header + varint len (1) + ue_id (1) = offset 38.
    Dataset ds;
    Stream s;
    s.ue_id = "a";
    s.events = {{0.5, cellular::lte::kSrvReq}, {1.0, cellular::lte::kS1ConnRel}};
    ds.streams.push_back(s);
    const std::string path = test::temp_path("cpt_columnar_device.cpt");
    write_columnar_file(path, ds);

    std::string bad = slurp(path);
    bad[38] = 7;  // kNumDeviceTypes == 3
    spit(path, bad);
    ColumnarReader reader(path);
    StreamBatch batch;
    try {
        reader.next(batch);
        FAIL() << "bad device id must be rejected";
    } catch (const std::exception& e) {
        EXPECT_NE(std::string(e.what()).find("bad device id at byte offset 38"), std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

TEST(ColumnarWriterTest, RejectsBadAppends) {
    const std::string path = test::temp_path("cpt_columnar_badappend.cpt");
    {
        ColumnarWriter writer(path, cellular::Generation::kLte4G);
        Stream s;
        s.ue_id = "u";
        s.hour_of_day = 24;
        EXPECT_THROW(writer.append(s), std::invalid_argument);
        writer.finish();
        s.hour_of_day = 0;
        EXPECT_THROW(writer.append(s), std::invalid_argument);  // after finish()
    }
    std::remove(path.c_str());
}

// ---- chunked generation byte-identity ---------------------------------------

TEST(ChunkedGeneration, WorldGeneratorByteIdenticalToInRamPath) {
    SyntheticWorldConfig cfg;
    cfg.population = {40, 20, 10};
    cfg.seed = 77;
    const SyntheticWorldGenerator gen(cfg);

    const std::string ram_path = test::temp_path("cpt_chunked_ram.cpt");
    write_columnar_file(ram_path, gen.generate(), 16);
    const std::string ram_bytes = slurp(ram_path);
    std::remove(ram_path.c_str());

    const std::size_t prev = util::global_pool().threads();
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        util::set_global_threads(threads);
        for (const std::size_t chunk_ues : {std::size_t{7}, std::size_t{64}}) {
            const std::string path = test::temp_path("cpt_chunked_stream.cpt");
            {
                ColumnarWriter writer(path, cfg.generation, 16);
                gen.generate_to(writer, chunk_ues);
                writer.finish();
            }
            EXPECT_EQ(slurp(path), ram_bytes)
                << "threads=" << threads << " chunk_ues=" << chunk_ues;
            std::remove(path.c_str());
        }
    }
    util::set_global_threads(prev);
}

TEST(ChunkedGeneration, SamplerByteIdenticalToInRamPath) {
    SyntheticWorldConfig wcfg;
    wcfg.population = {50, 0, 0};
    wcfg.seed = 21;
    const auto world = SyntheticWorldGenerator(wcfg).generate();
    const auto tok = core::Tokenizer::fit(world);
    util::Rng model_rng(9);
    core::CptGptConfig mcfg;
    mcfg.d_model = 24;
    mcfg.heads = 2;
    mcfg.mlp_hidden = 48;
    mcfg.blocks = 1;
    mcfg.max_seq_len = 64;
    mcfg.head_hidden = 24;
    const core::CptGpt model(tok, mcfg, model_rng);  // untrained: contracts only
    core::SamplerConfig scfg;
    scfg.max_stream_len = 16;
    const core::Sampler sampler(model, tok, world.initial_event_distribution(), scfg);

    const std::string ram_path = test::temp_path("cpt_sampler_ram.cpt");
    {
        util::Rng rng(5);
        write_columnar_file(ram_path, sampler.generate(20, rng), 8);
    }
    const std::string ram_bytes = slurp(ram_path);
    std::remove(ram_path.c_str());

    const std::size_t prev = util::global_pool().threads();
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
        util::set_global_threads(threads);
        const std::string path = test::temp_path("cpt_sampler_stream.cpt");
        {
            util::Rng rng(5);
            ColumnarWriter writer(path, tok.generation(), 8);
            const std::size_t n = sampler.generate_to(writer, 20, rng);
            EXPECT_EQ(n, 20u);
            writer.finish();
        }
        EXPECT_EQ(slurp(path), ram_bytes) << "threads=" << threads;
        std::remove(path.c_str());
    }
    util::set_global_threads(prev);
}

// ---- streaming lint and fidelity vs the in-RAM suite ------------------------

TEST(StreamingPaths, LintMatchesInRamReport) {
    // An untrained sampler produces violations, making the comparison
    // non-trivial (first offender, per-category counts).
    SyntheticWorldConfig wcfg;
    wcfg.population = {40, 0, 0};
    wcfg.seed = 31;
    const auto world = SyntheticWorldGenerator(wcfg).generate();
    const auto tok = core::Tokenizer::fit(world);
    util::Rng model_rng(3);
    core::CptGptConfig mcfg;
    mcfg.d_model = 24;
    mcfg.heads = 2;
    mcfg.mlp_hidden = 48;
    mcfg.blocks = 1;
    mcfg.max_seq_len = 64;
    mcfg.head_hidden = 24;
    const core::CptGpt model(tok, mcfg, model_rng);
    util::Rng rng(8);
    const auto ds =
        core::Sampler(model, tok, world.initial_event_distribution()).generate(40, rng);

    const std::string path = test::temp_path("cpt_streaming_lint.cpt");
    write_columnar_file(path, ds, 8);  // several chunks
    ColumnarReader reader(path);

    const lint::TraceLinter linter(ds.generation);
    const auto ram = linter.lint(ds);
    const auto streamed = linter.lint(reader);

    EXPECT_EQ(streamed.total_streams, ram.total_streams);
    EXPECT_EQ(streamed.total_events, ram.total_events);
    EXPECT_EQ(streamed.pre_bootstrap_events, ram.pre_bootstrap_events);
    EXPECT_EQ(streamed.counted_events, ram.counted_events);
    EXPECT_EQ(streamed.violating_events, ram.violating_events);
    EXPECT_EQ(streamed.violating_streams, ram.violating_streams);
    EXPECT_EQ(streamed.unbootstrapped_streams, ram.unbootstrapped_streams);
    EXPECT_EQ(streamed.violations_by_state_event, ram.violations_by_state_event);
    ASSERT_EQ(streamed.first_offender.has_value(), ram.first_offender.has_value());
    if (ram.first_offender) {
        EXPECT_EQ(streamed.first_offender->stream_index, ram.first_offender->stream_index);
        EXPECT_EQ(streamed.first_offender->ue_id, ram.first_offender->ue_id);
        EXPECT_EQ(streamed.first_offender->event_index, ram.first_offender->event_index);
        EXPECT_EQ(streamed.first_offender->event, ram.first_offender->event);
    }

    // The streaming path cannot afford O(streams) per-UE summaries.
    lint::TraceLintConfig per_ue;
    per_ue.per_ue = true;
    EXPECT_THROW(linter.lint(reader, per_ue), std::invalid_argument);
    std::remove(path.c_str());
}

TEST(StreamingPaths, FidelityMatchesInRamWithinSketchError) {
    // ~2k-UE synthesized world vs a smaller reference, matching the ISSUE's
    // acceptance setup: counts exact, quantile distances within epsilon.
    SyntheticWorldConfig synth_cfg;
    synth_cfg.population = {1400, 560, 200};
    synth_cfg.seed = 41;
    const auto synth = SyntheticWorldGenerator(synth_cfg).generate();
    SyntheticWorldConfig ref_cfg;
    ref_cfg.population = {500, 200, 70};
    ref_cfg.seed = 43;
    const auto ref = SyntheticWorldGenerator(ref_cfg).generate();

    const auto exact = metrics::evaluate_fidelity(synth, ref);

    const std::string synth_path = test::temp_path("cpt_streaming_fid_synth.cpt");
    const std::string ref_path = test::temp_path("cpt_streaming_fid_ref.cpt");
    write_columnar_file(synth_path, synth);
    write_columnar_file(ref_path, ref);
    ColumnarReader synth_reader(synth_path);
    ColumnarReader ref_reader(ref_path);

    const auto acc_synth = metrics::accumulate_fidelity(synth_reader);
    const auto acc_ref = metrics::accumulate_fidelity(ref_reader);
    EXPECT_EQ(acc_synth.total_streams(), synth.streams.size());
    EXPECT_EQ(acc_synth.total_events(), synth.total_events());
    const auto streamed = metrics::evaluate_fidelity(acc_synth, acc_ref);

    // Exact pieces: violation fractions and the event-type breakdown.
    EXPECT_DOUBLE_EQ(streamed.event_violation_fraction, exact.event_violation_fraction);
    EXPECT_DOUBLE_EQ(streamed.stream_violation_fraction, exact.stream_violation_fraction);
    ASSERT_EQ(streamed.breakdown_diff.size(), exact.breakdown_diff.size());
    for (std::size_t i = 0; i < exact.breakdown_diff.size(); ++i) {
        EXPECT_NEAR(streamed.breakdown_diff[i], exact.breakdown_diff[i], 1e-12);
    }

    // Quantile-based distances: within the documented sketch rank error.
    const double eps =
        acc_synth.sketch_rank_error() + acc_ref.sketch_rank_error() + 1e-9;
    EXPECT_NEAR(streamed.maxy_sojourn_connected, exact.maxy_sojourn_connected, eps);
    EXPECT_NEAR(streamed.maxy_sojourn_idle, exact.maxy_sojourn_idle, eps);
    EXPECT_NEAR(streamed.maxy_flow_length_all, exact.maxy_flow_length_all, eps);
    EXPECT_NEAR(streamed.maxy_flow_length_srv_req, exact.maxy_flow_length_srv_req, eps);
    EXPECT_NEAR(streamed.maxy_flow_length_s1_rel, exact.maxy_flow_length_s1_rel, eps);

    // evaluate_fidelity_streaming is the same computation end to end.
    const auto streamed2 = metrics::evaluate_fidelity_streaming(synth_reader, ref_reader);
    EXPECT_DOUBLE_EQ(streamed2.maxy_sojourn_connected, streamed.maxy_sojourn_connected);
    EXPECT_DOUBLE_EQ(streamed2.maxy_flow_length_all, streamed.maxy_flow_length_all);

    std::remove(synth_path.c_str());
    std::remove(ref_path.c_str());
}

}  // namespace
}  // namespace cpt::trace
