package bench

// Paper reference values, transcribed from the evaluation section. Keys
// are X; values are seconds.

// PaperRow3 is one row of a three-column timing table.
type PaperRow3 struct {
	Base   float64 // CPU baseline (SeqAn / ksw2 / BELLA)
	GPU1   float64 // LOGAN, 1 GPU
	GPUAll float64 // LOGAN, all GPUs (6 or 8)
}

// TableIIPaper: SeqAn vs LOGAN, 100K alignments, POWER9 + 6x V100
// (paper Table II).
var TableIIPaper = map[int32]PaperRow3{
	10:   {5.1, 2.2, 1.9},
	20:   {12.7, 3.1, 2.1},
	50:   {29.6, 5.0, 2.2},
	100:  {45.7, 7.2, 2.7},
	500:  {102.6, 14.9, 4.0},
	1000: {133.3, 20.2, 4.9},
	2500: {168.0, 25.3, 5.6},
	5000: {176.6, 26.7, 5.8},
}

// TableIIIPaper: ksw2 vs LOGAN, 100K alignments, Skylake + 8x V100
// (paper Table III).
var TableIIIPaper = map[int32]PaperRow3{
	10:   {6.9, 2.5, 1.7},
	20:   {7.0, 3.8, 1.8},
	50:   {7.7, 5.8, 2.1},
	100:  {10.4, 7.3, 2.4},
	500:  {113.0, 15.2, 3.4},
	1000: {209.5, 20.4, 4.3},
	2500: {1235.8, 25.9, 5.2},
	5000: {3213.1, 27.2, 5.2},
}

// TableIVPaper: BELLA E. coli, 1.82M alignments (paper Table IV).
var TableIVPaper = map[int32]PaperRow3{
	5:   {53.2, 110.4, 114.3},
	10:  {108.6, 146.4, 115.3},
	15:  {139.0, 152.9, 114.8},
	20:  {226.7, 162.7, 118.4},
	25:  {275.3, 173.5, 125.3},
	30:  {558.0, 185.3, 130.6},
	35:  {654.1, 198.4, 136.8},
	40:  {750.1, 212.7, 138.4},
	50:  {913.1, 248.5, 141.4},
	80:  {1303.7, 295.8, 142.4},
	100: {1507.1, 336.3, 144.5},
}

// TableVPaper: BELLA C. elegans, 235M alignments (paper Table V).
var TableVPaper = map[int32]PaperRow3{
	5:   {131.7, 577.1, 213.1},
	10:  {723.3, 750.2, 579.7},
	15:  {1467.7, 865.6, 749.8},
	20:  {1954.8, 908.9, 777.0},
	25:  {2518.8, 1015.5, 838.9},
	30:  {3047.1, 1125.0, 888.0},
	35:  {3492.5, 1226.5, 927.0},
	40:  {3887.0, 1329.0, 955.9},
	50:  {4607.7, 1449.0, 983.7},
	80:  {6367.7, 1593.9, 1046.1},
	100: {7385.3, 1753.3, 1080.9},
}

// Fig12Paper: headline GCUPS levels (paper §VI-B / Fig. 12).
var Fig12Paper = struct {
	LoganGPU1  float64 // LOGAN single GPU
	CUDASWMax  float64 // CUDASW++ best
	ManymapMax float64 // manymap best (single GPU)
	Logan8xVs  float64 // LOGAN 8-GPU GCUPS over GPU-only CUDASW++ 8-GPU
}{181.0, 70.0, 96.0, 3.2}
