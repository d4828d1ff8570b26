#ifndef APEX_CORE_JOURNAL_H_
#define APEX_CORE_JOURNAL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluate.hpp"
#include "core/status.hpp"
#include "runtime/record.hpp"

/**
 * @file
 * Crash-safe write-ahead journal for DSE sweeps.
 *
 * A sweep over many (application, PE variant) cells can run for
 * hours; a crash — OOM kill, power loss, a SIGKILLed CI job — used to
 * throw all of it away.  The journal makes sweeps durable: every
 * completed unit of work (one variant-construction outcome per app,
 * one evaluation outcome per cell) is appended to an append-only,
 * checksummed record log (runtime/record.hpp) under the cache
 * directory *before* the sweep moves on.  `apexc sweep --resume`
 * replays the journal and re-evaluates only the missing cells; the
 * assembled ExplorationReport is byte-identical to an uninterrupted
 * run — the same contract the parallel runtime gives `--jobs`.
 *
 * The header record carries a fingerprint of everything that shapes
 * the sweep (level, recipe flags, eval knobs, tech model, explorer
 * configuration, application set).  A resume against a journal with a
 * different fingerprint silently starts fresh — replaying cells of a
 * different configuration would poison the report.
 *
 * Records are keyed by (app index, cell index), so the append order —
 * which varies across job counts — does not matter for replay.  An
 * app may have several records (a resumed run whose rebuild differs
 * from the journal appends its own); replay keeps the latest.  The
 * AppRecord is also the sweep's in-memory build outcome
 * (core/sweep.cpp), so the report and the journal share one value.
 * Appends are crash points for the fault injector
 * (APEX_FAULT="crash:N" kills the process at the Nth append), which
 * is how the kill -9 durability path stays rehearsable in tests and
 * CI.
 */

namespace apex::core {

/** Frame magic and schema version of the sweep journal.
 * Version 2: AppRecord cells carry mine_capped_levels.
 * Version 3: CellRecords drop the string mirror of the status.
 * A version mismatch is a fingerprint mismatch: the old journal is
 * ignored and the sweep restarts from scratch (never mis-decoded). */
inline constexpr std::string_view kJournalMagic = "apexsweep";
inline constexpr int kJournalVersion = 3;

/** Recipe cells per app (mirrors sweep.cpp's RecipeCell). */
inline constexpr int kJournalCellsPerApp = 3;

/** Journal for one sweep; all methods are safe to call when open()
 * failed (appends become no-ops).  A *write* failure mid-run is a
 * different story: the log on disk is now missing outcomes, so a
 * later --resume would silently re-run (or worse, mis-assemble) work
 * the user believes is checkpointed.  The record log latches the
 * failure (lastError()); runSweep checks it after assembly and fails
 * the sweep loudly with kResourceExhausted (exit 17) instead of
 * finishing with an unreplayable log — see DESIGN.md Sec. 7h. */
class SweepJournal {
  public:
    /** Outcome of one app's variant-construction task. */
    struct CellInfo {
        bool has_variant = false; ///< Recipe produced this cell.
        std::string variant;      ///< Variant name.
        int non_optimal_merges = 0;
        int merge_timeouts = 0;
        int mine_capped_levels = 0; ///< Mining levels truncated at
                                    ///< max_patterns_per_level.
    };
    struct AppRecord {
        int app = -1;
        Status validate_status; ///< Non-ok => whole app skipped.
        bool spec_failed = false;
        std::string spec_name;
        Status spec_status;
        std::array<CellInfo, kJournalCellsPerApp> cells;
    };

    /** Outcome of one (app, cell) evaluation. */
    struct CellRecord {
        int app = -1;
        int cell = -1;
        std::string variant;
        EvalResult result; ///< Success payload or failure status,
                           ///< diagnostics included either way.
    };

    SweepJournal() = default;
    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /**
     * Open (and with @p resume, replay) the journal at
     * @p dir/sweep.journal.  @p fingerprint must cover every input
     * that shapes the sweep; a mismatching or schema-skewed prior
     * journal is restarted fresh.  A non-ok return means journaling
     * is unavailable (the sweep still runs, undurably).
     */
    Status open(const std::string &dir, std::uint64_t fingerprint,
                std::size_t app_count, bool resume);

    /** True when appends will reach disk. */
    bool active() const;

    /** The write failure that stopped journaling (ok while healthy).
     * Latched by the underlying record log on the first failed
     * append; once set, the log is closed and truncated back to its
     * last good frame. */
    Status lastError() const;

    /** Cells replayed from a prior run (0 unless resume matched). */
    int replayedCells() const { return replayed_cells_; }

    /** Replayed app record for @p app, or null. */
    const AppRecord *appRecord(std::size_t app) const;

    /** Replayed cell record, or null. */
    const CellRecord *cellRecord(std::size_t app, int cell) const;

    /**
     * Encode/decode one CellRecord as the exact payload bytes the
     * journal appends.  Shared with the process-isolation worker
     * protocol (core/sweep.cpp --isolate=process): a worker's
     * response *is* a journalable cell record, so the supervisor
     * checkpoints exactly what it received — checksummed end to end.
     */
    static std::string
    encodeCellRecordPayload(const CellRecord &rec);
    static bool decodeCellRecordPayload(const std::string &payload,
                                        CellRecord *out);

    /** Append one completed build outcome.  Crash point.  A record
     * whose encoding equals the one replayed for its app appends
     * nothing (and is no crash point), so a rebuild that agrees with
     * the journal leaves it untouched; one that differs is appended
     * and becomes the app's latest record. */
    void appendApp(const AppRecord &rec);

    /** Append one completed evaluation.  Crash point. Thread-safe. */
    void appendCell(const CellRecord &rec);

  private:
    std::unique_ptr<runtime::RecordLog> log_;
    std::vector<std::optional<AppRecord>> apps_;
    std::vector<std::array<std::optional<CellRecord>,
                           kJournalCellsPerApp>>
        cells_;
    int replayed_cells_ = 0;
};

} // namespace apex::core

#endif // APEX_CORE_JOURNAL_H_
