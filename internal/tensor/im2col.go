package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window:
// kernel size, stride, and zero padding. The same geometry type is shared
// by the convolution and pooling layers so that output-size arithmetic
// lives in one place.
type ConvGeom struct {
	KH, KW int // kernel height and width
	SH, SW int // stride
	PH, PW int // zero padding on each side
}

// OutSize returns the spatial output size for an input of h×w, or panics
// if the geometry does not fit.
func (g ConvGeom) OutSize(h, w int) (oh, ow int) {
	if g.KH <= 0 || g.KW <= 0 || g.SH <= 0 || g.SW <= 0 {
		panic(fmt.Sprintf("tensor: invalid conv geometry %+v", g))
	}
	oh = (h+2*g.PH-g.KH)/g.SH + 1
	ow = (w+2*g.PW-g.KW)/g.SW + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv geometry %+v does not fit input %dx%d", g, h, w))
	}
	return oh, ow
}

// Im2ColInto lowers a (c,h,w) image, flattened row-major in src, into
// the (c*KH*KW, OH*OW) column matrix d, so that convolution becomes a
// single matrix multiplication; padding reads as zero. It works on raw
// slices for callers (the batched convolution layer) that shard a
// minibatch across workers and cannot afford per-sample tensor headers.
func Im2ColInto(d, src []float64, c, h, w int, g ConvGeom) {
	oh, ow := g.OutSize(h, w)
	cols := oh * ow
	row := 0
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				out := d[row*cols : row*cols+cols]
				i := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.SH - g.PH + ky
					if iy < 0 || iy >= h {
						for ox := 0; ox < ow; ox++ {
							out[i] = 0
							i++
						}
						continue
					}
					rowBase := chBase + iy*w
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.SW - g.PW + kx
						if ix < 0 || ix >= w {
							out[i] = 0
						} else {
							out[i] = src[rowBase+ix]
						}
						i++
					}
				}
				row++
			}
		}
	}
}

// Col2Im scatters a (C*KH*KW, OH*OW) column-gradient matrix back into a
// (C,H,W) image gradient, accumulating where windows overlap. dst is
// overwritten (zeroed first).
func Col2Im(dst, cols *Tensor, g ConvGeom) {
	if dst.Dims() != 3 {
		panic("tensor: Col2Im needs a (C,H,W) destination")
	}
	c, h, w := dst.shape[0], dst.shape[1], dst.shape[2]
	oh, ow := g.OutSize(h, w)
	rows := c * g.KH * g.KW
	nc := oh * ow
	if cols.Dims() != 2 || cols.shape[0] != rows || cols.shape[1] != nc {
		panic(fmt.Sprintf("tensor: Col2Im source shape %v, want [%d %d]", cols.shape, rows, nc))
	}
	Col2ImInto(dst.Data, cols.Data, c, h, w, g)
}

// Col2ImInto is the raw-slice core of Col2Im, the scatter counterpart of
// Im2ColInto. d is a (c,h,w) image gradient flattened row-major and is
// overwritten (zeroed first); src must hold c*KH*KW*OH*OW elements.
func Col2ImInto(d, src []float64, c, h, w int, g ConvGeom) {
	oh, ow := g.OutSize(h, w)
	nc := oh * ow
	for i := range d[:c*h*w] {
		d[i] = 0
	}
	row := 0
	for ch := 0; ch < c; ch++ {
		chBase := ch * h * w
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				in := src[row*nc : row*nc+nc]
				i := 0
				for oy := 0; oy < oh; oy++ {
					iy := oy*g.SH - g.PH + ky
					if iy < 0 || iy >= h {
						i += ow
						continue
					}
					rowBase := chBase + iy*w
					for ox := 0; ox < ow; ox++ {
						ix := ox*g.SW - g.PW + kx
						if ix >= 0 && ix < w {
							d[rowBase+ix] += in[i]
						}
						i++
					}
				}
				row++
			}
		}
	}
}
