//! The update kernels' per-block topic tally.
//!
//! `phi_update` counts one block's assignments (one word) and
//! `theta_update` one document's, and each writes the nonzero `(topic,
//! count)` cells in ascending topic order: a ϕ row merge and a CSR θ row.
//! The paper's θ kernel does this with a dense K-counter scratch and a
//! prefix-sum compaction over it (Section 6.2), which costs O(K) per
//! document. [`TopicCounter`] keeps the K counters but also marks each
//! counted topic in a bitmap, and a summary bitmap marks the nonzero
//! bitmap words, so the compaction walks only the words the tally set.
//! It lives in executor scratch and is left zeroed by every drain, so one
//! counter serves every block its executor runs.

/// K u32 counters, a `⌈K/64⌉`-word bitmap of the nonzero ones and a
/// `⌈K/4096⌉`-word summary of the nonzero bitmap words.
#[derive(Debug, Clone)]
pub struct TopicCounter {
    counts: Vec<u32>,
    words: Vec<u64>,
    summary: Vec<u64>,
    distinct: usize,
}

impl TopicCounter {
    /// An empty counter over topics `0..num_topics`.
    pub fn new(num_topics: usize) -> Self {
        assert!(num_topics > 0, "need at least one topic");
        let words = num_topics.div_ceil(64);
        Self {
            counts: vec![0; num_topics],
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            distinct: 0,
        }
    }

    /// Counts one token of `topic`. Panics if `topic` is out of range.
    #[inline]
    pub fn add(&mut self, topic: u16) {
        let t = topic as usize;
        let count = &mut self.counts[t];
        self.distinct += usize::from(*count == 0);
        *count += 1;
        self.words[t / 64] |= 1 << (t % 64);
        self.summary[t / 4096] |= 1 << (t / 64 % 64);
    }

    /// The number of distinct topics counted since the last drain.
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// Calls `emit(topic, count)` for every counted topic in ascending
    /// order and zeroes the counter. It reads the summary words, then only
    /// the bitmap words and counters the tally set.
    pub fn drain(&mut self, mut emit: impl FnMut(u16, u32)) {
        let Self {
            counts,
            words,
            summary,
            distinct,
        } = self;
        for (s, marks) in summary.iter_mut().enumerate() {
            let mut marks = std::mem::take(marks);
            while marks != 0 {
                let w = s * 64 + marks.trailing_zeros() as usize;
                marks &= marks - 1;
                let mut bits = std::mem::take(&mut words[w]);
                while bits != 0 {
                    let t = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    emit(t as u16, std::mem::take(&mut counts[t]));
                }
            }
        }
        *distinct = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_topic_past_k_is_refused() {
        TopicCounter::new(65).add(65);
    }
}
