"""Braid-move calculus, framed moduli points, and Legendrian-loop
monodromy maps over exact fields, with a separation harness for the
induced free-product action."""
