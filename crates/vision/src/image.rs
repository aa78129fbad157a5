//! A minimal 8-bit RGB raster with PPM I/O.
//!
//! The webcam substitute renders into this type and the detection pipeline
//! reads from it; PPM (P6) files let benches dump frames for inspection and
//! let the blob store archive "raw plate images for quality control"
//! (paper §2.3).

use sdl_color::Rgb8;

/// An owned 8-bit RGB image, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageRgb8 {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl ImageRgb8 {
    /// A `width` × `height` image filled with `fill`.
    pub fn new(width: usize, height: usize, fill: Rgb8) -> ImageRgb8 {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        let mut data = Vec::with_capacity(width * height * 3);
        for _ in 0..width * height {
            data.extend_from_slice(&[fill.r, fill.g, fill.b]);
        }
        ImageRgb8 { width, height, data }
    }

    /// Reshape in place to `width` × `height` filled with `fill`, reusing
    /// the existing pixel buffer — the renderer's per-frame allocation
    /// becomes a no-op once the buffer has reached frame size.
    pub fn reset(&mut self, width: usize, height: usize, fill: Rgb8) {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        self.width = width;
        self.height = height;
        self.data.clear();
        self.data.reserve(width * height * 3);
        for _ in 0..width * height {
            self.data.extend_from_slice(&[fill.r, fill.g, fill.b]);
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw interleaved RGB bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw interleaved RGB bytes (the renderer's tile workers
    /// write row slices of this directly).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    #[inline]
    fn offset(&self, x: usize, y: usize) -> usize {
        (y * self.width + x) * 3
    }

    /// Pixel at (x, y); panics out of bounds (debug-friendly, hot paths use
    /// `get`).
    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> Rgb8 {
        let o = self.offset(x, y);
        Rgb8::new(self.data[o], self.data[o + 1], self.data[o + 2])
    }

    /// Pixel at (x, y) or None when out of bounds.
    #[inline]
    pub fn get(&self, x: i64, y: i64) -> Option<Rgb8> {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            return None;
        }
        Some(self.pixel(x as usize, y as usize))
    }

    /// Write pixel at (x, y); silently ignores out-of-bounds writes (drawing
    /// primitives clip at the edges).
    #[inline]
    pub fn put(&mut self, x: i64, y: i64, c: Rgb8) {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            return;
        }
        let o = self.offset(x as usize, y as usize);
        self.data[o] = c.r;
        self.data[o + 1] = c.g;
        self.data[o + 2] = c.b;
    }

    /// Luma (BT.601 integer approximation) of the pixel at (x, y).
    #[inline]
    pub fn luma(&self, x: usize, y: usize) -> u8 {
        let p = self.pixel(x, y);
        ((77 * p.r as u32 + 150 * p.g as u32 + 29 * p.b as u32) >> 8) as u8
    }

    /// Full grayscale plane.
    pub fn to_luma(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.width * self.height);
        self.luma_into(&mut out);
        out
    }

    /// Full grayscale plane into a reusable buffer (resized to one byte per
    /// pixel, every byte overwritten) — same weights as
    /// [`ImageRgb8::luma`], bit for bit.
    pub fn luma_into(&self, out: &mut Vec<u8>) {
        // Writing through a zip into a sized buffer, rather than
        // `extend`ing from a mapped iterator, lets this loop vectorize
        // (measured ~6× faster per frame).
        out.resize(self.width * self.height, 0);
        for (o, p) in out.iter_mut().zip(self.data.chunks_exact(3)) {
            *o = ((77 * p[0] as u32 + 150 * p[1] as u32 + 29 * p[2] as u32) >> 8) as u8;
        }
    }

    /// Mean color over a disk of radius `r` centered at (cx, cy); returns
    /// the mean and the number of pixels sampled (0 if fully out of bounds).
    pub fn mean_disk(&self, cx: f64, cy: f64, r: f64) -> (Rgb8, usize) {
        let mut sum = [0u64; 3];
        let mut n = 0usize;
        let r2 = r * r;
        let x0 = (cx - r).floor() as i64;
        let x1 = (cx + r).ceil() as i64;
        let y0 = (cy - r).floor() as i64;
        let y1 = (cy + r).ceil() as i64;
        for y in y0..=y1 {
            for x in x0..=x1 {
                let dx = x as f64 - cx;
                let dy = y as f64 - cy;
                if dx * dx + dy * dy > r2 {
                    continue;
                }
                if let Some(p) = self.get(x, y) {
                    sum[0] += p.r as u64;
                    sum[1] += p.g as u64;
                    sum[2] += p.b as u64;
                    n += 1;
                }
            }
        }
        if n == 0 {
            return (Rgb8::default(), 0);
        }
        (
            Rgb8::new(
                (sum[0] / n as u64) as u8,
                (sum[1] / n as u64) as u8,
                (sum[2] / n as u64) as u8,
            ),
            n,
        )
    }

    /// Serialize as binary PPM (P6).
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.extend_from_slice(&self.data);
        out
    }

    /// Serialize as a BMP (24-bit, bottom-up) — the format browsers render,
    /// used by the portal's HTML export.
    pub fn to_bmp(&self) -> Vec<u8> {
        let w = self.width;
        let h = self.height;
        let row_bytes = w * 3;
        let pad = (4 - row_bytes % 4) % 4;
        let data_size = (row_bytes + pad) * h;
        let file_size = 54 + data_size;
        let mut out = Vec::with_capacity(file_size);
        // BITMAPFILEHEADER
        out.extend_from_slice(b"BM");
        out.extend_from_slice(&(file_size as u32).to_le_bytes());
        out.extend_from_slice(&[0; 4]); // reserved
        out.extend_from_slice(&54u32.to_le_bytes()); // pixel data offset
                                                     // BITMAPINFOHEADER
        out.extend_from_slice(&40u32.to_le_bytes());
        out.extend_from_slice(&(w as i32).to_le_bytes());
        out.extend_from_slice(&(h as i32).to_le_bytes());
        out.extend_from_slice(&1u16.to_le_bytes()); // planes
        out.extend_from_slice(&24u16.to_le_bytes()); // bpp
        out.extend_from_slice(&[0; 24]); // no compression, default fields

        // Pixel rows, bottom-up, BGR order: copy each row, then swap R and
        // B in place.
        for row in self.data.chunks_exact(row_bytes).rev() {
            let start = out.len();
            out.extend_from_slice(row);
            for px in out[start..].chunks_exact_mut(3) {
                px.swap(0, 2);
            }
            out.extend(std::iter::repeat_n(0u8, pad));
        }
        out
    }

    /// Parse a binary PPM (P6) produced by [`ImageRgb8::to_ppm`].
    pub fn from_ppm(bytes: &[u8]) -> Result<ImageRgb8, String> {
        let mut pos = 0usize;
        let mut fields = Vec::new();
        // Header: magic, width, height, maxval — whitespace separated, with
        // '#' comments allowed.
        while fields.len() < 4 {
            while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if pos < bytes.len() && bytes[pos] == b'#' {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
                continue;
            }
            let start = pos;
            while pos < bytes.len() && !bytes[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if start == pos {
                return Err("truncated PPM header".into());
            }
            fields.push(
                std::str::from_utf8(&bytes[start..pos]).map_err(|_| "bad header")?.to_string(),
            );
        }
        if fields[0] != "P6" {
            return Err(format!("unsupported PPM magic '{}'", fields[0]));
        }
        let width: usize = fields[1].parse().map_err(|_| "bad width")?;
        let height: usize = fields[2].parse().map_err(|_| "bad height")?;
        if fields[3] != "255" {
            return Err("only maxval 255 supported".into());
        }
        pos += 1; // single whitespace after maxval
        let need = width * height * 3;
        let data = bytes.get(pos..pos + need).ok_or("truncated PPM data")?.to_vec();
        Ok(ImageRgb8 { width, height, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_pixels() {
        let mut img = ImageRgb8::new(4, 3, Rgb8::new(10, 20, 30));
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.pixel(3, 2), Rgb8::new(10, 20, 30));
        img.put(1, 1, Rgb8::new(255, 0, 0));
        assert_eq!(img.pixel(1, 1), Rgb8::new(255, 0, 0));
    }

    #[test]
    fn out_of_bounds_are_safe() {
        let mut img = ImageRgb8::new(2, 2, Rgb8::default());
        assert_eq!(img.get(-1, 0), None);
        assert_eq!(img.get(0, 5), None);
        img.put(-3, 9, Rgb8::new(1, 2, 3)); // no panic
        assert_eq!(img.get(1, 1), Some(Rgb8::default()));
    }

    #[test]
    fn luma_ordering() {
        let mut img = ImageRgb8::new(3, 1, Rgb8::default());
        img.put(0, 0, Rgb8::new(255, 255, 255));
        img.put(1, 0, Rgb8::new(128, 128, 128));
        assert!(img.luma(0, 0) > img.luma(1, 0));
        assert!(img.luma(1, 0) > img.luma(2, 0));
        assert_eq!(img.to_luma().len(), 3);
    }

    #[test]
    fn mean_disk_averages() {
        let mut img = ImageRgb8::new(20, 20, Rgb8::new(100, 100, 100));
        for y in 0..20 {
            for x in 0..10 {
                img.put(x, y, Rgb8::new(200, 100, 100));
            }
        }
        let (c, n) = img.mean_disk(5.0, 10.0, 3.0);
        assert!(n > 20);
        assert_eq!(c, Rgb8::new(200, 100, 100));
        let (_, zero) = img.mean_disk(-100.0, -100.0, 2.0);
        assert_eq!(zero, 0);
    }

    #[test]
    fn ppm_roundtrip() {
        let mut img = ImageRgb8::new(7, 5, Rgb8::new(1, 2, 3));
        img.put(6, 4, Rgb8::new(250, 251, 252));
        let bytes = img.to_ppm();
        let back = ImageRgb8::from_ppm(&bytes).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn bmp_has_valid_header_and_size() {
        let img = ImageRgb8::new(5, 3, Rgb8::new(10, 20, 30));
        let bmp = img.to_bmp();
        assert_eq!(&bmp[0..2], b"BM");
        let file_size = u32::from_le_bytes(bmp[2..6].try_into().unwrap()) as usize;
        assert_eq!(file_size, bmp.len());
        // 5 px * 3 B = 15 B rows padded to 16; 3 rows; 54 B headers.
        assert_eq!(bmp.len(), 54 + 16 * 3);
        // First pixel datum is the bottom-left pixel in BGR.
        assert_eq!(&bmp[54..57], &[30, 20, 10]);
    }

    /// Reference encoder: one `pixel` read and one 3-byte write per pixel.
    /// `to_bmp` must match it byte for byte.
    fn per_pixel_bmp(img: &ImageRgb8) -> Vec<u8> {
        let (w, h) = (img.width(), img.height());
        let pad = (4 - w * 3 % 4) % 4;
        let mut out = img.to_bmp()[..54].to_vec();
        for y in (0..h).rev() {
            for x in 0..w {
                let p = img.pixel(x, y);
                out.extend_from_slice(&[p.b, p.g, p.r]);
            }
            out.extend(std::iter::repeat_n(0u8, pad));
        }
        out
    }

    #[test]
    fn bmp_rows_match_the_per_pixel_encoder() {
        for (w, h) in [(1, 1), (5, 3), (7, 2), (320, 240), (640, 480)] {
            let mut img = ImageRgb8::new(w, h, Rgb8::default());
            for (i, b) in img.bytes_mut().iter_mut().enumerate() {
                *b = (i * 7 % 251) as u8;
            }
            assert_eq!(img.to_bmp(), per_pixel_bmp(&img), "{w}x{h}");
        }
    }

    #[test]
    fn ppm_rejects_garbage() {
        assert!(ImageRgb8::from_ppm(b"P5\n1 1\n255\nx").is_err());
        assert!(ImageRgb8::from_ppm(b"P6\n4 4\n255\nxx").is_err());
        assert!(ImageRgb8::from_ppm(b"").is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_panics() {
        ImageRgb8::new(0, 10, Rgb8::default());
    }
}
