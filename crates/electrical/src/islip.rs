//! The iSLIP allocation algorithm (McKeown), used for both VC allocation
//! and switch allocation in the baseline router (Table 2).
//!
//! Classic grant/accept with rotating pointers: each output grants to the
//! first requesting input at or after its grant pointer; each input
//! accepts grants starting from its accept pointer, up to its capacity
//! (the crossbar input speedup). Pointers advance past accepted partners
//! only for first-iteration matches, preserving iSLIP's desynchronization
//! property.
//!
//! The allocator is fixed-capacity (at most [`MAX_PORTS`] inputs and
//! outputs; the router uses 5 x 4) and touches no heap: a request matrix
//! is one `u8` of wanted outputs per input, "first requester at or after
//! the pointer" is a mask rotation, and matches land in an array the
//! caller owns. The `Vec`-based form it replaced lives on in this
//! module's tests as the reference the mask form is compared against,
//! match for match and pointer for pointer.

/// Most inputs, and most outputs, an allocator can have.
pub const MAX_PORTS: usize = 8;

/// A persistent iSLIP allocator over `n_in` inputs and `n_out` outputs.
#[derive(Debug, Clone, Copy)]
pub struct Islip {
    grant_ptr: [u8; MAX_PORTS],
    accept_ptr: [u8; MAX_PORTS],
    n_in: u8,
    n_out: u8,
}

/// The first set bit of `mask` at or after bit `start`, wrapping around:
/// a round-robin pick from a rotating pointer. (The router's VC selector
/// rotates the same way over a port's 16-bit VC mask.)
pub(crate) fn first_from(mask: u16, start: u8) -> Option<usize> {
    let at_or_after = mask & (u16::MAX << start);
    let pick = if at_or_after != 0 { at_or_after } else { mask };
    (pick != 0).then(|| pick.trailing_zeros() as usize)
}

impl Islip {
    /// Creates an allocator with all pointers at zero.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or exceeds [`MAX_PORTS`].
    pub fn new(n_in: usize, n_out: usize) -> Self {
        assert!(n_in > 0 && n_out > 0, "iSLIP dimensions must be positive");
        assert!(
            n_in <= MAX_PORTS && n_out <= MAX_PORTS,
            "iSLIP supports at most {MAX_PORTS} inputs and outputs"
        );
        Islip {
            grant_ptr: [0; MAX_PORTS],
            accept_ptr: [0; MAX_PORTS],
            n_in: n_in as u8,
            n_out: n_out as u8,
        }
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        usize::from(self.n_in)
    }

    /// Number of outputs.
    pub fn outputs(&self) -> usize {
        usize::from(self.n_out)
    }

    /// Runs `iterations` of iSLIP over the request matrix.
    ///
    /// Bit `o` of `requests[i]` says input `i` is requesting output `o`.
    /// Each output is matched to at most one input; each input to at
    /// most `in_capacity` outputs. The `(input, output)` matches are
    /// written to the front of `matches` in accept order; returns how
    /// many there are.
    ///
    /// # Panics
    ///
    /// Panics if a request names an out-of-range output or
    /// `requests.len() != inputs()`.
    pub fn allocate(
        &mut self,
        requests: &[u8],
        in_capacity: usize,
        iterations: usize,
        matches: &mut [(usize, usize); MAX_PORTS],
    ) -> usize {
        let (n_in, n_out) = (self.inputs(), self.outputs());
        assert_eq!(requests.len(), n_in, "one request mask per input");
        // requesters[out]: the inputs requesting `out`.
        let mut requesters = [0u8; MAX_PORTS];
        for (inp, &wanted) in requests.iter().enumerate() {
            assert!(
                u32::from(wanted) >> n_out == 0,
                "request to out-of-range output in {wanted:#010b}"
            );
            let mut rest = wanted;
            while rest != 0 {
                requesters[rest.trailing_zeros() as usize] |= 1 << inp;
                rest &= rest - 1;
            }
        }
        let mut unmatched_outs = u8::MAX >> (MAX_PORTS - n_out);
        let mut in_count = [0usize; MAX_PORTS];
        let mut n_matches = 0;

        for iter in 0..iterations.max(1) {
            // Grant phase: each unmatched output picks one requesting,
            // non-saturated input, round-robin from its pointer.
            let mut open_ins = 0u8;
            for (inp, &count) in in_count[..n_in].iter().enumerate() {
                open_ins |= u8::from(count < in_capacity) << inp;
            }
            // granted[inp]: the outputs granting to `inp`.
            let mut granted = [0u8; MAX_PORTS];
            let mut rest = unmatched_outs;
            while rest != 0 {
                let out = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if let Some(inp) =
                    first_from((requesters[out] & open_ins).into(), self.grant_ptr[out])
                {
                    granted[inp] |= 1 << out;
                }
            }

            // Accept phase: each input accepts up to its remaining
            // capacity, round-robin over outputs from its pointer.
            let mut accepted_any = false;
            for inp in 0..n_in {
                let start = self.accept_ptr[inp];
                while in_count[inp] < in_capacity {
                    let Some(out) = first_from(granted[inp].into(), start) else {
                        break;
                    };
                    // Clearing the accepted grant moves `first_from` on
                    // around the ring: bits at or after `start` go first,
                    // then the wrapped ones, each once.
                    granted[inp] &= !(1 << out);
                    unmatched_outs &= !(1 << out);
                    in_count[inp] += 1;
                    matches[n_matches] = (inp, out);
                    n_matches += 1;
                    accepted_any = true;
                    if iter == 0 {
                        // Pointer update rule: one past the accepted
                        // partner, first iteration only.
                        self.grant_ptr[out] = ((inp + 1) % n_in) as u8;
                        self.accept_ptr[inp] = ((out + 1) % n_out) as u8;
                    }
                }
            }
            if !accepted_any {
                break;
            }
        }
        n_matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phastlane_netsim::rng::SimRng;

    /// The `Vec`-based allocator the mask form replaced, body verbatim:
    /// the reference for `mask_form_agrees_with_the_vec_reference`.
    struct Reference {
        grant_ptr: Vec<usize>,
        accept_ptr: Vec<usize>,
    }

    impl Reference {
        fn new(n_in: usize, n_out: usize) -> Self {
            Reference {
                grant_ptr: vec![0; n_out],
                accept_ptr: vec![0; n_in],
            }
        }

        fn inputs(&self) -> usize {
            self.accept_ptr.len()
        }

        fn outputs(&self) -> usize {
            self.grant_ptr.len()
        }

        fn allocate(
            &mut self,
            requests: &[Vec<usize>],
            in_capacity: usize,
            iterations: usize,
        ) -> Vec<(usize, usize)> {
            assert_eq!(requests.len(), self.inputs(), "one request list per input");
            let n_in = self.inputs();
            let n_out = self.outputs();
            let mut out_matched = vec![false; n_out];
            let mut in_count = vec![0usize; n_in];
            let mut matches = Vec::new();

            for iter in 0..iterations.max(1) {
                // Grant phase: each unmatched output picks one requesting,
                // non-saturated input, round-robin from its pointer.
                let mut grants: Vec<Option<usize>> = vec![None; n_out]; // output -> input
                for out in 0..n_out {
                    if out_matched[out] {
                        continue;
                    }
                    let start = self.grant_ptr[out];
                    'scan: for k in 0..n_in {
                        let inp = (start + k) % n_in;
                        if in_count[inp] >= in_capacity {
                            continue;
                        }
                        if requests[inp].iter().any(|&o| {
                            assert!(o < n_out, "request to out-of-range output {o}");
                            o == out
                        }) {
                            grants[out] = Some(inp);
                            break 'scan;
                        }
                    }
                }

                // Accept phase: each input accepts up to its remaining
                // capacity, round-robin over outputs from its pointer.
                let mut accepted_any = false;
                #[allow(clippy::needless_range_loop)] // inp indexes two arrays
                for inp in 0..n_in {
                    let start = self.accept_ptr[inp];
                    for k in 0..n_out {
                        if in_count[inp] >= in_capacity {
                            break;
                        }
                        let out = (start + k) % n_out;
                        if grants[out] == Some(inp) {
                            grants[out] = None;
                            out_matched[out] = true;
                            in_count[inp] += 1;
                            matches.push((inp, out));
                            accepted_any = true;
                            if iter == 0 {
                                // Pointer update rule: one past the accepted
                                // partner, first iteration only.
                                self.grant_ptr[out] = (inp + 1) % n_in;
                                self.accept_ptr[inp] = (out + 1) % n_out;
                            }
                        }
                    }
                }
                if !accepted_any {
                    break;
                }
            }
            matches
        }
    }

    /// Request lists (the old calling form) as one mask per input.
    fn masks<L: AsRef<[usize]>>(requests: &[L]) -> Vec<u8> {
        requests
            .iter()
            .map(|outs| outs.as_ref().iter().fold(0, |m, &o| m | 1 << o))
            .collect()
    }

    /// Runs `a` over request lists.
    fn allocate(
        a: &mut Islip,
        requests: &[&[usize]],
        in_capacity: usize,
        iterations: usize,
    ) -> Vec<(usize, usize)> {
        let mut matches = [(0, 0); MAX_PORTS];
        let n = a.allocate(&masks(requests), in_capacity, iterations, &mut matches);
        matches[..n].to_vec()
    }

    fn sorted(mut v: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
        v.sort_unstable();
        v
    }

    #[test]
    fn mask_form_agrees_with_the_vec_reference() {
        let mut rng = SimRng::seed_from_u64(0x00E1_EC05);
        for (n_in, n_out) in [(5, 4), (8, 8), (1, 4), (3, 1)] {
            let mut fast = Islip::new(n_in, n_out);
            let mut reference = Reference::new(n_in, n_out);
            for round in 0..2_500 {
                // Sparse, mixed and dense matrices, as a router sees them.
                let density = [0.1, 0.4, 0.9][round % 3];
                let lists: Vec<Vec<usize>> = (0..n_in)
                    .map(|_| (0..n_out).filter(|_| rng.gen_bool(density)).collect())
                    .collect();
                let in_capacity = rng.gen_range(1usize..5);
                let iterations = rng.gen_range(1usize..4);

                let want = reference.allocate(&lists, in_capacity, iterations);
                let mut matches = [(0, 0); MAX_PORTS];
                let n = fast.allocate(&masks(&lists), in_capacity, iterations, &mut matches);
                assert_eq!(&matches[..n], &want[..], "{n_in}x{n_out} round {round}");
                let grant: Vec<usize> = fast.grant_ptr[..n_out].iter().map(|&p| p.into()).collect();
                let accept: Vec<usize> =
                    fast.accept_ptr[..n_in].iter().map(|&p| p.into()).collect();
                assert_eq!(grant, reference.grant_ptr, "grant pointers, round {round}");
                assert_eq!(
                    accept, reference.accept_ptr,
                    "accept pointers, round {round}"
                );
            }
        }
    }

    #[test]
    fn simple_one_to_one() {
        let mut a = Islip::new(2, 2);
        let m = allocate(&mut a, &[&[0], &[1]], 1, 1);
        assert_eq!(sorted(m), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn conflicting_requests_pick_one() {
        let mut a = Islip::new(2, 2);
        let m = allocate(&mut a, &[&[0], &[0]], 1, 1);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].1, 0);
    }

    #[test]
    fn pointer_rotation_gives_fairness() {
        // Two inputs fight for output 0 repeatedly; each should win about
        // half the time thanks to the grant pointer update.
        let mut a = Islip::new(2, 1);
        let mut wins = [0usize; 2];
        for _ in 0..10 {
            let m = allocate(&mut a, &[&[0], &[0]], 1, 1);
            wins[m[0].0] += 1;
        }
        assert_eq!(wins[0], 5);
        assert_eq!(wins[1], 5);
    }

    #[test]
    fn input_capacity_enforced() {
        let mut a = Islip::new(1, 4);
        let m = allocate(&mut a, &[&[0, 1, 2, 3]], 2, 4);
        assert_eq!(m.len(), 2, "input capacity caps the matches");
    }

    #[test]
    fn input_speedup_four_matches_four_outputs() {
        let mut a = Islip::new(2, 4);
        let m = allocate(&mut a, &[&[0, 1, 2, 3], &[]], 4, 4);
        assert_eq!(m.len(), 4);
        assert!(m.iter().all(|&(i, _)| i == 0));
    }

    #[test]
    fn multiple_iterations_fill_the_match() {
        // With one iteration, input 0 may grab output 0 and output 1's
        // grant to input 0 is wasted while input 1 sits idle; a second
        // iteration recovers the match.
        let mut a = Islip::new(2, 2);
        let m = allocate(&mut a, &[&[0, 1], &[0, 1]], 1, 2);
        assert_eq!(m.len(), 2, "two iterations find the perfect matching");
    }

    #[test]
    fn no_requests_no_matches() {
        let mut a = Islip::new(3, 3);
        assert!(allocate(&mut a, &[&[], &[], &[]], 4, 2).is_empty());
    }

    #[test]
    fn matches_are_conflict_free() {
        let mut a = Islip::new(5, 4);
        let reqs: Vec<Vec<usize>> = (0..5)
            .map(|i| (0..4).filter(|o| (i + o) % 2 == 0).collect())
            .collect();
        let reqs: Vec<&[usize]> = reqs.iter().map(Vec::as_slice).collect();
        for _ in 0..20 {
            let m = allocate(&mut a, &reqs, 4, 3);
            let mut outs: Vec<usize> = m.iter().map(|&(_, o)| o).collect();
            outs.sort_unstable();
            outs.dedup();
            assert_eq!(outs.len(), m.len(), "each output matched at most once");
        }
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn out_of_range_request_panics() {
        let mut a = Islip::new(1, 1);
        let _ = allocate(&mut a, &[&[5]], 1, 1);
    }

    #[test]
    #[should_panic(expected = "at most 8")]
    fn more_than_eight_ports_rejected() {
        let _ = Islip::new(9, 4);
    }
}
