package nn

import (
	"fmt"
	"math"
)

// SoftmaxCrossEntropy computes the mean softmax cross-entropy loss of
// a batch of logits against integer class labels, together with the
// gradient of the loss with respect to the logits.
//
// The returned gradient already includes the 1/N batch averaging, so a
// full backward pass through the network produces the gradient of the
// *mean* loss — the quantity clients exchange with the server.
func SoftmaxCrossEntropy(logits *Batch, labels []int) (loss float64, dLogits *Batch) {
	dLogits = NewBatch(logits.N, logits.Dims)
	return softmaxCrossEntropyInto(dLogits, logits, labels), dLogits
}

// softmaxCrossEntropyInto is SoftmaxCrossEntropy writing the logit
// gradient into dLogits, which must have the logits' shape and may be
// the logits batch itself: each sample's logits are read in full
// before its gradient is written. A nil dLogits skips the gradient.
func softmaxCrossEntropyInto(dLogits, logits *Batch, labels []int) (loss float64) {
	if logits.N != len(labels) {
		panic(fmt.Sprintf("nn.SoftmaxCrossEntropy: %d samples vs %d labels", logits.N, len(labels)))
	}
	classes := logits.Dims.Size()
	invN := 1 / float64(logits.N)
	for n := 0; n < logits.N; n++ {
		z := logits.Sample(n)
		label := labels[n]
		if label < 0 || label >= classes {
			panic(fmt.Sprintf("nn.SoftmaxCrossEntropy: label %d out of range [0,%d)", label, classes))
		}
		// Numerically stable log-sum-exp.
		maxZ := z[0]
		for _, v := range z[1:] {
			if v > maxZ {
				maxZ = v
			}
		}
		var sum float64
		for _, v := range z {
			sum += math.Exp(v - maxZ)
		}
		logSum := math.Log(sum) + maxZ
		loss += (logSum - z[label]) * invN
		if dLogits == nil {
			continue
		}
		g := dLogits.Sample(n)
		for c := 0; c < classes; c++ {
			p := math.Exp(z[c] - logSum)
			if c == label {
				p -= 1
			}
			g[c] = p * invN
		}
	}
	return loss
}

// Argmax returns the index of the largest logit for each sample.
func Argmax(logits *Batch) []int {
	out := make([]int, logits.N)
	for n := range out {
		out[n] = argmax(logits.Sample(n))
	}
	return out
}

// countCorrect returns how many samples' largest logit is their label.
func countCorrect(logits *Batch, labels []int) (correct int) {
	for n, label := range labels {
		if argmax(logits.Sample(n)) == label {
			correct++
		}
	}
	return correct
}

// argmax returns the index of the first largest element of z.
func argmax(z []float64) int {
	best := 0
	for c := 1; c < len(z); c++ {
		if z[c] > z[best] {
			best = c
		}
	}
	return best
}
