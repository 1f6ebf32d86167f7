//! Interleaving suite: decodes that share a thread share its state index
//! (the search's one graph-sized table), and nothing may leak between
//! them through it.
//!
//! Each of two threads steps 16 streaming decodes round-robin, one frame
//! each in turn, over two graphs of different sizes: the small graph's
//! decodes start first and the large graph's join later, so the shared
//! index grows mid-run. Half of the decodes run at a wider beam under a
//! different cap, so decodes of different widths share the index. Every
//! decode must
//! equal the batch decoder on its rows, the `HashMap` reference decoder on
//! the same rows, and the same streaming decode run alone, on `words`,
//! `cost`, `best_state` and `reached_final`.

use asr_acoustic::scores::AcousticTable;
use asr_decoder::reference::ReferenceDecoder;
use asr_decoder::search::{DecodeOptions, DecodeResult, DecodeScratch, ViterbiDecoder};
use asr_decoder::stream::StreamingDecode;
use asr_wfst::synth::{SynthConfig, SynthWfst};
use asr_wfst::Wfst;

/// Decodes per thread; the first half on the small graph.
const DECODES: usize = 16;
/// Rounds the large graph's decodes start after the small graph's.
const LATE_START: usize = 6;

/// One utterance: its graph, rows, options, and the round it starts in.
struct Job<'g> {
    wfst: &'g Wfst,
    scores: AcousticTable,
    opts: DecodeOptions,
    start: usize,
}

impl Job<'_> {
    fn open(&self) -> StreamingDecode<&Wfst> {
        let scratch = DecodeScratch::new(self.wfst.num_states());
        StreamingDecode::new(self.wfst, self.opts.clone(), scratch)
    }

    /// The decode on its own: every row but the last stepped, the last
    /// one finished. Returns the result and the length of its trace.
    fn alone(&self) -> (DecodeResult, usize) {
        let mut decode = self.open();
        let frames = self.scores.num_frames();
        for frame in 0..frames - 1 {
            decode.step(self.scores.frame_row(frame));
        }
        let (result, scratch) = decode.finish(Some(self.scores.frame_row(frames - 1)));
        (result, scratch.trace_len())
    }
}

/// A thread's 16 jobs, `seed` apart from the other thread's.
fn jobs<'g>(small: &'g Wfst, large: &'g Wfst, seed: u64) -> Vec<Job<'g>> {
    (0..DECODES)
        .map(|i| {
            let late = i >= DECODES / 2;
            let wfst = if late { large } else { small };
            // At least 100 frames: three lattice GCs per decode, each in
            // a round of its own, since no two decodes start together.
            let frames = 100 + (i * 7) % 11;
            let scores = AcousticTable::random(
                frames,
                wfst.num_phones() as usize,
                (0.5, 4.0),
                seed * 100 + i as u64,
            );
            let opts = if i % 2 == 1 {
                DecodeOptions {
                    max_active: Some(1_000),
                    ..DecodeOptions::with_beam(10.0)
                }
            } else {
                DecodeOptions {
                    max_active: [None, Some(64), Some(300)][i % 3],
                    ..DecodeOptions::with_beam(if i % 4 < 2 { 6.0 } else { 7.5 })
                }
            };
            Job {
                wfst,
                scores,
                opts,
                start: i + if late { LATE_START } else { 0 },
            }
        })
        .collect()
}

/// Steps every job round-robin on this thread: in round `r` each job that
/// has started consumes its next row, the last one through `finish`.
fn interleaved(jobs: &[Job]) -> Vec<(DecodeResult, usize)> {
    let mut open: Vec<Option<StreamingDecode<&Wfst>>> = jobs.iter().map(|_| None).collect();
    let mut done: Vec<Option<(DecodeResult, usize)>> = jobs.iter().map(|_| None).collect();
    let mut round = 0;
    while done.iter().any(Option::is_none) {
        for (i, job) in jobs.iter().enumerate() {
            if round < job.start || done[i].is_some() {
                continue;
            }
            let decode = open[i].get_or_insert_with(|| job.open());
            let frame = round - job.start;
            let row = job.scores.frame_row(frame);
            if frame + 1 < job.scores.num_frames() {
                decode.step(row);
            } else {
                done[i] = open[i].take().map(|decode| {
                    let (result, scratch) = decode.finish(Some(row));
                    (result, scratch.trace_len())
                });
            }
        }
        round += 1;
    }
    done.into_iter().flatten().collect()
}

fn assert_same(got: &DecodeResult, want: &DecodeResult, what: &str) {
    assert_eq!(got.words, want.words, "{what}: words");
    assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{what}: cost");
    assert_eq!(got.best_state, want.best_state, "{what}: best_state");
    assert_eq!(
        got.reached_final, want.reached_final,
        "{what}: reached_final"
    );
}

/// Runs one thread's jobs interleaved and checks each against its three
/// oracles.
fn run_and_check(jobs: &[Job], thread: &str) {
    let results = interleaved(jobs);
    assert_eq!(results.len(), jobs.len());
    for (i, (job, (got, got_trace))) in jobs.iter().zip(&results).enumerate() {
        let what = format!("{thread}, decode {i} ({:?})", job.opts);
        assert_eq!(
            got.stats.frames.len(),
            job.scores.num_frames(),
            "{what}: alive"
        );
        assert!(got.cost.is_finite(), "{what}: cost");
        let (alone, alone_trace) = job.alone();
        assert_same(got, &alone, &format!("{what} vs alone"));
        assert_eq!(got.stats.frames, alone.stats.frames, "{what}: frame stats");
        assert_eq!(got_trace, &alone_trace, "{what}: trace");
        let batch = ViterbiDecoder::new(job.opts.clone()).decode(job.wfst, &job.scores);
        assert_same(got, &batch, &format!("{what} vs batch"));
        let reference = ReferenceDecoder::new(job.opts.clone()).decode(job.wfst, &job.scores);
        assert_same(got, &reference, &format!("{what} vs reference"));
    }
}

#[test]
fn sessions_sharing_a_threads_index_decode_as_if_alone() {
    let graph = |states| SynthWfst::generate(&SynthConfig::with_states(states).with_seed(11));
    let (small, large) = (graph(5_000).unwrap(), graph(50_000).unwrap());
    let (first, second) = (jobs(&small, &large, 1), jobs(&small, &large, 2));
    std::thread::scope(|scope| {
        let other = scope.spawn(|| run_and_check(&second, "second thread"));
        run_and_check(&first, "first thread");
        other.join().expect("second thread");
    });
}
