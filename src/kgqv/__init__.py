"""kgqv: characteristic-lattice simulation and statistical verification
for the 1+1 dimensional damped stochastic Klein-Gordon equation

    (d_tt - d_xx + a d_t + m^2) u = theta * F(u) * dW,   u(0)=u_t(0)=0,

with multiplicative space-time white noise.  The package measures the
eps^(3/2) local-linearization rate of rotated second differences, the
quadratic-variation limit, and a plug-in estimator of theta.
"""

__version__ = "0.1.0"
