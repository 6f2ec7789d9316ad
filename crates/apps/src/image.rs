//! Image types, synthetic scene generation, and PGM I/O.
//!
//! The paper's case study loads an image from file (`readImage`) and
//! writes the filtered result (`writeImage`); since we ship no binary
//! assets, `synthetic_scene` generates a deterministic grayscale test
//! image with bimodal intensity (bright objects on a dark background plus
//! noise) — the kind of input Otsu thresholding is designed for.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An 8-bit grayscale image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrayImage {
    pub width: u32,
    pub height: u32,
    pub data: Vec<u8>,
}

/// A packed-RGB image (`0x00RRGGBB` per pixel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RgbImage {
    pub width: u32,
    pub height: u32,
    pub data: Vec<u32>,
}

impl GrayImage {
    pub fn new(width: u32, height: u32) -> Self {
        GrayImage {
            width,
            height,
            data: vec![0; width as usize * height as usize],
        }
    }

    pub fn pixels(&self) -> usize {
        self.data.len()
    }

    pub fn get(&self, x: u32, y: u32) -> u8 {
        self.data[self.index(x, y)]
    }

    pub fn set(&mut self, x: u32, y: u32, v: u8) {
        let i = self.index(x, y);
        self.data[i] = v;
    }

    /// Row-major offset of `(x, y)`, in `usize` so large images cannot
    /// wrap.
    fn index(&self, x: u32, y: u32) -> usize {
        y as usize * self.width as usize + x as usize
    }

    /// Serialize as binary PGM (P5).
    pub fn to_pgm(&self) -> Vec<u8> {
        let mut out = format!("P5\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.extend_from_slice(&self.data);
        out
    }

    /// Parse a binary PGM (P5).
    pub fn from_pgm(bytes: &[u8]) -> Result<Self, String> {
        let header_end = bytes
            .windows(1)
            .enumerate()
            .scan(0, |fields, (i, w)| {
                if w[0].is_ascii_whitespace() {
                    *fields += 1;
                }
                Some((*fields, i))
            })
            .find(|(fields, _)| *fields == 4)
            .map(|(_, i)| i + 1)
            .ok_or("truncated PGM header")?;
        let header = std::str::from_utf8(&bytes[..header_end]).map_err(|e| e.to_string())?;
        let mut it = header.split_ascii_whitespace();
        if it.next() != Some("P5") {
            return Err("not a P5 PGM".into());
        }
        let width: u32 = it
            .next()
            .ok_or("missing width")?
            .parse()
            .map_err(|_| "bad width")?;
        let height: u32 = it
            .next()
            .ok_or("missing height")?
            .parse()
            .map_err(|_| "bad height")?;
        let maxval: u32 = it
            .next()
            .ok_or("missing maxval")?
            .parse()
            .map_err(|_| "bad maxval")?;
        if maxval != 255 {
            return Err(format!("unsupported maxval {maxval}"));
        }
        let data = bytes[header_end..].to_vec();
        if data.len() != width as usize * height as usize {
            return Err(format!(
                "payload size {} != {}x{}",
                data.len(),
                width,
                height
            ));
        }
        Ok(GrayImage {
            width,
            height,
            data,
        })
    }
}

impl RgbImage {
    /// Lift a gray image to RGB (r = g = b = gray).
    pub fn from_gray(g: &GrayImage) -> Self {
        RgbImage {
            width: g.width,
            height: g.height,
            data: g
                .data
                .iter()
                .map(|&v| ((v as u32) << 16) | ((v as u32) << 8) | v as u32)
                .collect(),
        }
    }
}

/// Deterministic synthetic test scene: dark background (~40) with noise,
/// bright rectangles and a disc (~200) — strongly bimodal so the Otsu
/// threshold is meaningful.
pub fn synthetic_scene(width: u32, height: u32, seed: u64) -> GrayImage {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut img = GrayImage::new(width, height);
    for y in 0..height {
        for x in 0..width {
            let noise: i16 = rng.gen_range(-15..=15);
            img.set(x, y, (40i16 + noise).clamp(0, 255) as u8);
        }
    }
    // Bright rectangle in the upper-left quadrant.
    for y in height / 8..height / 3 {
        for x in width / 8..width / 2 {
            let noise: i16 = rng.gen_range(-15..=15);
            img.set(x, y, (200i16 + noise).clamp(0, 255) as u8);
        }
    }
    // Bright disc in the lower-right quadrant.
    let (cx, cy, r) = (
        3 * width as i64 / 4,
        3 * height as i64 / 4,
        height as i64 / 6,
    );
    for y in 0..height as i64 {
        for x in 0..width as i64 {
            if (x - cx).pow(2) + (y - cy).pow(2) <= r * r {
                let noise: i16 = rng.gen_range(-15..=15);
                img.set(x as u32, y as u32, (210i16 + noise).clamp(0, 255) as u8);
            }
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pgm_roundtrip() {
        let img = synthetic_scene(32, 24, 7);
        let pgm = img.to_pgm();
        let back = GrayImage::from_pgm(&pgm).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn pgm_rejects_garbage() {
        assert!(GrayImage::from_pgm(b"P6\n1 1\n255\nX").is_err());
        assert!(GrayImage::from_pgm(b"P5\n2 2\n255\nab").is_err()); // short payload
        assert!(GrayImage::from_pgm(b"P5").is_err());
    }

    #[test]
    fn synthetic_scene_is_bimodal_and_deterministic() {
        let a = synthetic_scene(64, 64, 42);
        let b = synthetic_scene(64, 64, 42);
        assert_eq!(a, b);
        let dark = a.data.iter().filter(|&&v| v < 100).count();
        let bright = a.data.iter().filter(|&&v| v >= 150).count();
        assert!(dark > 1000, "background present: {dark}");
        assert!(bright > 300, "objects present: {bright}");
        // Very few mid-tones: the histogram is bimodal.
        let mid = a.pixels() - dark - bright;
        assert!(mid < a.pixels() / 10, "mid = {mid}");
    }

    #[test]
    fn rgb_lift_preserves_luma() {
        let g = synthetic_scene(8, 8, 1);
        let rgb = RgbImage::from_gray(&g);
        for (i, &px) in rgb.data.iter().enumerate() {
            let v = g.data[i] as u32;
            assert_eq!(px, v << 16 | v << 8 | v);
        }
    }

    #[test]
    fn accessors() {
        let mut img = GrayImage::new(4, 3);
        img.set(2, 1, 99);
        assert_eq!(img.get(2, 1), 99);
        assert_eq!(img.pixels(), 12);
    }

    #[test]
    fn pixel_offsets_do_not_wrap_at_u32() {
        // 100 000 x 100 000 is past u32::MAX pixels; the offset is only
        // computed, so no data is needed.
        let img = GrayImage {
            width: 100_000,
            height: 100_000,
            data: Vec::new(),
        };
        assert_eq!(img.index(5, 50_000), 5_000_000_005);
    }
}
