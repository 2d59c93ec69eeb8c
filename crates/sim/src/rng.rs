//! The generator behind measurement and profiling noise: xorshift64*
//! seeded through SplitMix64, the stream the workspace's `rand` stand-in
//! draws from its `SmallRng`. Owning it here lets a measurement jump ahead
//! in the stream instead of drawing its way there.
//!
//! The xorshift update (three shift-xors) is linear over GF(2), so `n`
//! steps of it are one 64×64 bit matrix: the state `n` steps after `s` is
//! the xor of the matrix columns picked by the set bits of `s`. The `*`
//! multiply only shapes each output and never feeds back into the state.

/// Draws one [`XorShift64Star::jump`] skips.
pub(crate) const JUMP_DRAWS: usize = 800;

/// The [`JUMP_DRAWS`]-step jump matrix by columns: `JUMP[i]` is the state
/// `JUMP_DRAWS` steps after the state `1 << i`.
const JUMP: [u64; 64] = [
    0x6cf31dca8b921d34,
    0xacd6161ccf5adf80,
    0xec5173ef9beadfdc,
    0x0433f6c0af1d1f12,
    0xe6f471e9cf3870b9,
    0xfb5eb1a525086fa9,
    0x0c268201dfda0b9d,
    0x05e488f5701d053d,
    0xc914ba864bb11c97,
    0xed1869b556a30be7,
    0x9b3ab8ec1d6840fe,
    0xfcefa3599c4662ef,
    0x688554ebc1fc3b7a,
    0xe348d64d72980e0e,
    0x3a6e1cb0b84508a4,
    0xb42147ccd9b4ac3e,
    0xf141edc098e18031,
    0xc31099fe3a8f970c,
    0x30d5e84b06fb9f2a,
    0xf9450f2d67ee2fcc,
    0x48fe55e15a64b017,
    0x3d1af211caf4f503,
    0xe9a8849b1fd01117,
    0x50b4bfdb7b1fc1a1,
    0xb9965cbb0c88052e,
    0xf6a8ba6abddc4f4e,
    0xfb57e13fcbf21093,
    0x9db7fe1cf5d9a4d1,
    0x53507ae153e36a19,
    0xb1fc55b9925cd94e,
    0x9842f7590eb94998,
    0x350b3c766e1c7da9,
    0x80a07bebb31738fd,
    0x97edb80f204ea0d1,
    0x6271b5a114e2f101,
    0x463a5a03b3fbc77f,
    0xaa44181507409256,
    0x7c791752a43193b8,
    0x2b4cfeb48d76159d,
    0xd775ff3916323000,
    0xa9bcfc0a79efc906,
    0x3db18f044827c8d5,
    0x3c481e83a2352ced,
    0x059fb8e23ee1b791,
    0x462f3fb73e46c07e,
    0x6a0605024a8c8bad,
    0x0e1c5adff5701e16,
    0x7a4854c13bac6f6f,
    0xa7a17b4d777a31a6,
    0xdbeb973072b3b918,
    0xa666b1d3383b9d98,
    0xbfb743f709f69a06,
    0xa2af3cade18376e6,
    0x6ce150eb49ead8b1,
    0xc307d9777e3c79a6,
    0x7f97e62da6313059,
    0xa02328a8ee760f20,
    0xa922ac4b897c8c30,
    0x5a261e00cbe9459d,
    0x2ac1b6c2664d0502,
    0xd8d5d65bc8628c0c,
    0xadba168974a990c9,
    0x5adfa6a21cdd3bbd,
    0x5d138c6ef68457b0,
];

/// xorshift64*: one 64-bit state, never zero.
#[derive(Debug, Clone)]
pub(crate) struct XorShift64Star(u64);

impl XorShift64Star {
    /// Spreads `seed` with one SplitMix64 round and sets the low bit, so the
    /// state is never the all-zero fixed point.
    pub(crate) fn seed_from_u64(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        XorShift64Star((z ^ (z >> 31)) | 1)
    }

    /// The state update alone: the linear part of a draw.
    fn step(mut x: u64) -> u64 {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x
    }

    /// The next 64-bit output.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = Self::step(self.0);
        self.0.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// The next uniform in `[0, 1)`, from the output's top 53 bits.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Skips [`JUMP_DRAWS`] draws, as if [`next_u64`](Self::next_u64) had
    /// been called that many times.
    pub(crate) fn jump(&mut self) {
        let mut x = 0;
        for (bit, column) in JUMP.iter().enumerate() {
            x ^= column & 0u64.wrapping_sub((self.0 >> bit) & 1);
        }
        self.0 = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{DRAWS_PER_RUN, LANES, TIMED_RUNS, WARMUP_RUNS};

    #[test]
    fn the_jump_table_is_the_step_matrix_over_the_warmup_draws() {
        let draws = WARMUP_RUNS * DRAWS_PER_RUN;
        assert_eq!(TIMED_RUNS / LANES * DRAWS_PER_RUN, draws, "lane stride");
        let table: [u64; 64] =
            std::array::from_fn(|bit| (0..draws).fold(1 << bit, |x, _| XorShift64Star::step(x)));
        assert_eq!(table, JUMP);
    }

    #[test]
    fn first_draws_are_pinned() {
        // The stand-in `SmallRng`'s first outputs, printed before the
        // generator moved into this crate.
        for (seed, expected) in [
            (
                11u64,
                [
                    0x4b3b93d982810c21,
                    0xaf864d73feae590c,
                    0xcb9d9eefd9e6933a,
                    0xcb706f8f30090149,
                ],
            ),
            (
                u64::MAX,
                [
                    0x04f5cb85f3b730f6,
                    0xd77520402c9ff662,
                    0xa3e19404ea6014dc,
                    0x4491b7c90c367c2c,
                ],
            ),
        ] {
            let mut rng = XorShift64Star::seed_from_u64(seed);
            let drawn: [u64; 4] = std::array::from_fn(|_| rng.next_u64());
            assert_eq!(drawn, expected, "seed {seed}");
        }
    }
}
