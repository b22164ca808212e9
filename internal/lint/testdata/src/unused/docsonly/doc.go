// Package docsonly has no declarations, so it is not reported.
package docsonly
